/** @file Unit tests for StageTimer and the table writer. */

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "common/table.hpp"
#include "common/timer.hpp"

namespace edgepc {
namespace {

TEST(Timer, MeasuresElapsedTime)
{
    Timer t;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_GE(t.elapsedMs(), 8.0);
    EXPECT_GE(t.elapsedUs(), 8000.0);
}

TEST(Timer, ResetRestarts)
{
    Timer t;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    t.reset();
    EXPECT_LT(t.elapsedMs(), 5.0);
}

TEST(StageTimer, AccumulatesByStage)
{
    StageTimer t;
    t.add("sample", 2.0);
    t.add("neighbor", 3.0);
    t.add("sample", 1.0);
    EXPECT_DOUBLE_EQ(t.total("sample"), 3.0);
    EXPECT_DOUBLE_EQ(t.total("neighbor"), 3.0);
    EXPECT_DOUBLE_EQ(t.total("missing"), 0.0);
    EXPECT_DOUBLE_EQ(t.grandTotal(), 6.0);
    EXPECT_DOUBLE_EQ(t.fraction("sample"), 0.5);
}

TEST(StageTimer, PreservesInsertionOrder)
{
    StageTimer t;
    t.add("b", 1.0);
    t.add("a", 1.0);
    ASSERT_EQ(t.entries().size(), 2u);
    EXPECT_EQ(t.entries()[0].first, "b");
    EXPECT_EQ(t.entries()[1].first, "a");
}

TEST(StageTimer, MergeAndScale)
{
    StageTimer a, b;
    a.add("x", 2.0);
    b.add("x", 4.0);
    b.add("y", 6.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.total("x"), 6.0);
    EXPECT_DOUBLE_EQ(a.total("y"), 6.0);
    a.scale(0.5);
    EXPECT_DOUBLE_EQ(a.total("x"), 3.0);
}

TEST(StageTimer, ScopedStageRecords)
{
    StageTimer t;
    {
        StageTimer::ScopedStage scope(&t, "work");
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GE(t.total("work"), 3.0);
}

// A null timer is the "not timing" case of every model entry point:
// the scope records nothing, but the stage span still reaches the
// tracer.
TEST(StageTimer, ScopedStageWithNullTimerOnlyEmitsSpan)
{
#if !EDGEPC_TRACING
    GTEST_SKIP() << "live TraceScope spans compiled out (EDGEPC_TRACING=OFF)";
#endif
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.clear();
    tracer.setEnabled(true);
    {
        StageTimer::ScopedStage scope(nullptr, "untimed");
    }
    tracer.setEnabled(false);

    const auto spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].name, "untimed");
    EXPECT_EQ(spans[0].category, "stage");
}

TEST(StageTimer, ClearDropsEverything)
{
    StageTimer t;
    t.add("x", 1.0);
    t.clear();
    EXPECT_DOUBLE_EQ(t.grandTotal(), 0.0);
    EXPECT_TRUE(t.entries().empty());
}

TEST(Table, PrintsAlignedAscii)
{
    Table table({"name", "value"});
    table.row().cell("alpha").cell(1.5);
    table.row().cell("b").cell(static_cast<long long>(42));
    std::ostringstream os;
    table.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("1.50"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, CsvOutput)
{
    Table table({"a", "b"});
    table.row().cell("x").cell(2.25, 2);
    std::ostringstream os;
    table.csv(os);
    EXPECT_EQ(os.str(), "a,b\nx,2.25\n");
}

TEST(Formatters, SpeedupAndPercent)
{
    EXPECT_EQ(formatSpeedup(3.678), "3.68x");
    EXPECT_EQ(formatPercent(0.333), "33.3%");
}

} // namespace
} // namespace edgepc
