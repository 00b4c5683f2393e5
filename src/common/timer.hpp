/**
 * @file
 * Wall-clock timing utilities.
 *
 * StageTimer is the instrument behind every latency figure in the
 * evaluation: pipelines record named stage durations (sample, neighbor
 * search, grouping, feature compute, ...) and the benchmark harness
 * aggregates them into the paper's breakdowns and speedups.
 */

#ifndef EDGEPC_COMMON_TIMER_HPP
#define EDGEPC_COMMON_TIMER_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace edgepc {

/** Simple monotonic stopwatch returning elapsed time in milliseconds. */
class Timer
{
  public:
    Timer() { reset(); }

    /** Restart the stopwatch. */
    void reset() { start = Clock::now(); }

    /** Elapsed milliseconds since construction or the last reset(). */
    double elapsedMs() const
    {
        return std::chrono::duration<double, std::milli>(
                   Clock::now() - start)
            .count();
    }

    /** Elapsed microseconds since construction or the last reset(). */
    double elapsedUs() const
    {
        return std::chrono::duration<double, std::micro>(
                   Clock::now() - start)
            .count();
    }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start;
};

/**
 * Accumulates named per-stage durations across one or more runs.
 *
 * Stage names are free-form; the pipeline uses the canonical set in
 * core/pipeline.hpp (kStageSample, kStageNeighbor, ...).
 */
class StageTimer
{
  public:
    /** Add @p ms milliseconds to stage @p stage. */
    void add(const std::string &stage, double ms);

    /** Total milliseconds recorded for @p stage (0 if absent). */
    double total(const std::string &stage) const;

    /** Sum of all stages. */
    double grandTotal() const;

    /** Fraction of grandTotal() spent in @p stage (0 if empty). */
    double fraction(const std::string &stage) const;

    /** All stages in insertion order with their totals. */
    const std::vector<std::pair<std::string, double>> &entries() const;

    /** Merge another timer's totals into this one. */
    void merge(const StageTimer &other);

    /** Divide every stage total by @p n (averaging over n runs). */
    void scale(double factor);

    /** Drop all recorded data. */
    void clear();

    /**
     * RAII scope that adds its lifetime to a stage on destruction.
     * Usage: { ScopedStage s(timer, "sample"); ...work... }
     *
     * Every scoped stage also emits a "stage"-category span on the
     * global tracer, so the figure benches can rebuild the paper's
     * per-stage breakdown from span data alone (DESIGN.md §8). A null
     * @p timer still opens the span but records no duration.
     */
    class ScopedStage
    {
      public:
        ScopedStage(StageTimer *timer, std::string stage)
            : owner(timer), name(std::move(stage)), span(name, "stage")
        {
        }
        ~ScopedStage()
        {
            if (owner != nullptr) {
                owner->add(name, watch.elapsedMs());
            }
        }

        ScopedStage(const ScopedStage &) = delete;
        ScopedStage &operator=(const ScopedStage &) = delete;

      private:
        StageTimer *owner;
        std::string name;
        obs::TraceScope span;
        Timer watch;
    };

  private:
    std::vector<std::pair<std::string, double>> stages;
};

} // namespace edgepc

#endif // EDGEPC_COMMON_TIMER_HPP
