/**
 * @file
 * Shared declarations of the end-to-end benchmark: run options, the
 * declared workload and metric names (the same names BENCHMARK.json
 * lists), benchmark-side trace spans, the output check and the two
 * workload runners.
 */

#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "nn/tensor.hpp"
#include "pointcloud/point_cloud.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds between two steady-clock points. */
inline double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its spans (empty: not written). */
    std::string traceOut;
    std::string gitSha = "unknown";
};

/** A declared metric: name and unit, in output order. */
struct MetricDecl
{
    const char *name;
    const char *unit;
};

/** Workload names, as BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** End-to-end metrics, printed by every untraced run. */
const std::vector<MetricDecl> &endToEndMetrics();

/** Per-layer metrics, printed by every traced run. */
const std::vector<MetricDecl> &perLayerMetrics();

/** What one workload run measured. */
struct RunOutput
{
    /** Frames (or served requests) whose outcome was checked. */
    std::uint64_t attempted = 0;
    /** Wrong outputs, errors, rejects, sheds and degraded serves. */
    std::uint64_t failed = 0;
    /** True unless some output disagreed with its reference. */
    bool correct = true;
    /** Every metric the run measured, by declared name. */
    std::map<std::string, double> metrics;
};

/**
 * Benchmark-side spans: recorded in memory around each public call,
 * written as a Chrome trace_event file when the run ends. Recording
 * is a no-op unless enabled.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled);

    bool enabled() const { return on; }

    /** Reserve the id of a span whose children are recorded first. */
    std::uint64_t reserve() { return ++lastId; }

    /** Record a finished span under a reserved id. */
    void record(std::uint64_t id, const char *name, Clock::time_point start,
                Clock::time_point end, std::uint64_t parent,
                std::uint64_t frame);

    /** Record a finished span; returns its id (0 when disabled). */
    std::uint64_t add(const char *name, Clock::time_point start,
                      Clock::time_point end, std::uint64_t parent,
                      std::uint64_t frame);

    std::size_t size() const { return spans.size(); }

    /** Write every span as a trace_event JSON array; false on I/O
        failure. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        Clock::time_point start;
        Clock::time_point end;
        std::uint64_t id;
        std::uint64_t parent;
        std::uint64_t frame;
    };

    bool on;
    Clock::time_point epoch;
    std::uint64_t lastId = 0;
    std::vector<Span> spans;
};

/** Result of comparing logits with their reference. */
struct LogitCheck
{
    bool ok = false;
    /** Largest |got - ref| over all logits. */
    double maxAbsDiff = 0.0;
    /** Share of rows whose every logit is within tolerance. */
    double rowsWithin = 0.0;
    /** Share of rows whose argmax matches the reference's. */
    double argmaxAgreement = 0.0;
};

/**
 * Written tolerance of the output check: every logit finite, shape
 * equal to the reference, and at least kRowShare of the rows (points)
 * both within kLogitAbsTol + kLogitRelTol * max |ref| on every logit
 * and in argmax agreement with the reference.
 *
 * A few rows may differ by more: reassociated (FMA) sums move
 * features by ~1e-5, and DGCNN's feature-space kNN can then pick a
 * different neighbour at a near-tie, which changes that point's
 * logits. One W6 input shows this on 1 of 8192 rows (|diff| 0.055).
 * A defect moves far more than 0.5% of the rows.
 */
inline constexpr double kLogitAbsTol = 1e-3;
inline constexpr double kLogitRelTol = 1e-3;
inline constexpr double kRowShare = 0.995;

LogitCheck checkLogits(const edgepc::nn::Matrix &got,
                       const edgepc::nn::Matrix &ref);

/**
 * Seeded input pool of a workload: a few distinct raw clouds, a pure
 * function of (workload, seed).
 */
std::vector<edgepc::PointCloud> makeInputs(const std::string &workload,
                                           std::uint64_t seed);

/** FNV-1a digest over every byte of a pool (positions, features,
    feature width, labels). */
std::uint64_t digestInputs(const std::vector<edgepc::PointCloud> &pool);

/** Closed-loop single-caller frame workloads (pnpp-w1, dgcnn-w6). */
RunOutput runFrameWorkload(const Options &opts, SpanRecorder &spans);

/** Four-stream ServingEngine workload (serve-4x2k). */
RunOutput runServeWorkload(const Options &opts, SpanRecorder &spans);

/** Process peak resident set size in MB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
