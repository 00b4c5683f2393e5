// Self-test of the benchmark's percentile helpers: a tail percentile
// is reported only when at least ten samples lie beyond it.

#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void
expect(bool cond, const char *what)
{
    if (!cond) {
        std::printf("FAIL: %s\n", what);
        ++failures;
    }
}

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i > 0; --i) {
        v.push_back(static_cast<double>(i));
    }
    return v;
}

} // namespace

int
main()
{
    using namespace perfbench;

    expect(!median({}).has_value(), "median of nothing is omitted");
    expect(*median({3.0, 1.0, 2.0}) == 2.0, "median of 1..3 is 2");
    expect(*quantile(ramp(100), 0.9) == 90.0, "p90 of 1..100 is 90");

    // p90 needs 100 samples (10 beyond), p99 needs 1000.
    expect(!tailPercentile(ramp(99), 0.90).has_value(),
           "p90 of 99 samples is omitted");
    expect(tailPercentile(ramp(100), 0.90).value_or(0) == 90.0,
           "p90 of 100 samples is reported");
    expect(!tailPercentile(ramp(999), 0.99).has_value(),
           "p99 of 999 samples is omitted");
    expect(tailPercentile(ramp(1000), 0.99).value_or(0) == 990.0,
           "p99 of 1000 samples is reported");
    expect(!tailPercentile(ramp(5), 0.5).has_value(),
           "p50 of 5 samples as a tail is omitted");

    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "ok", failures);
    return failures ? 1 : 0;
}
