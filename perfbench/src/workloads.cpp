#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <iomanip>
#include <memory>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "core/pipeline.hpp"
#include "core/workloads.hpp"
#include "geometry/simd_distance.hpp"
#include "models/pointnetpp.hpp"
#include "nn/gemm.hpp"
#include "obs/metrics.hpp"
#include "pointcloud/sanitizer.hpp"
#include "serve/serving_engine.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace edgepc;

namespace {

/** Set-ups per run, whose median is setup_s: at least kMinSetups,
    and more while they add up to under kSetupBudgetS. */
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 30;
constexpr double kSetupBudgetS = 1.0;

/** serve-4x2k shape: four streams of 2048-point W1-style scenes
    (W1 at point scale 4) through PointNet++ lite-seg. */
constexpr std::size_t kStreams = 4;
constexpr std::size_t kServePointScale = 4;
constexpr std::size_t kServeClasses = 5;
constexpr std::size_t kMaxBatch = 4;
/** Fixed absolute open-loop offer, a third of the seed's closed-loop
    capacity on a quiet 4-core host (~115 frames/s) and well under it
    in a noisy window (62-79 frames/s, where an offer of 60 frames/s
    made the admission ladder degrade and shed frames). The engine
    serves it on the single-frame route. */
constexpr double kOpenFps = 40.0;
/** Frames pre-queued per stream in one closed-phase backlog round. */
constexpr std::size_t kBacklogPerStream = 12;
/** Frames of one closed-phase sync round: one caller submits a frame,
    waits for its response, then submits the next. */
constexpr std::size_t kSyncRoundFrames = 48;
/** Share of --seconds given to the closed phase of the traced run.
    Its open phase gets the rest: 25 s (--seconds >= 33.4) hold the
    1000 frames its p99 metrics need. The untraced run is all closed
    phase, so the gated sync rounds span the whole run. */
constexpr double kClosedShareTraced = 0.25;
/** Single-frame stage profile of the traced serve run. */
constexpr std::size_t kProfileFrames = 80;

EdgePcConfig
deployedConfig()
{
    return EdgePcConfig::snf();
}

double
sinceMs(Clock::time_point from)
{
    return msBetween(from, Clock::now());
}

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return msBetween(from, to) / 1000.0;
}

/** Value of an optional statistic that the sample is known to hold. */
double
must(std::optional<double> v)
{
    return v.value_or(0.0);
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Library counters whose deltas feed the per-layer metrics. */
enum CounterId : std::size_t
{
    kGemmFlops,
    kGemmFast,
    kGemmScalar,
    kGemmInt8,
    kSimdFast,
    kSimdScalar,
    kCacheHits,
    kCacheMisses,
    kScratchGrows,
    kPoolTasks,
    kServeBatches,
    kSamplerFps,
    kSamplerMorton,
    kSamplerRandom,
    kCounterCount,
};

constexpr const char *kCounterNames[kCounterCount] = {
    "gemm.flops",           "gemm.fast_path_calls",
    "gemm.scalar_path_calls", "gemm.int8_path_calls",
    "simd.fast_calls",      "simd.scalar_calls",
    "neighbor_cache.hits",  "neighbor_cache.misses",
    "scratch.grow_count",   "threadpool.tasks",
    "serve.batches",        "sampler.fps.calls",
    "sampler.morton.calls", "sampler.random.calls",
};

/** A snapshot of the library counters (or a delta of two). */
struct CounterSnapshot
{
    std::uint64_t v[kCounterCount] = {};

    static CounterSnapshot now()
    {
        static obs::Counter *counters[kCounterCount] = {};
        if (counters[0] == nullptr) {
            for (std::size_t i = 0; i < kCounterCount; ++i) {
                counters[i] =
                    &obs::MetricsRegistry::global().counter(kCounterNames[i]);
            }
        }
        CounterSnapshot s;
        for (std::size_t i = 0; i < kCounterCount; ++i) {
            s.v[i] = counters[i]->value();
        }
        return s;
    }

    CounterSnapshot operator-(const CounterSnapshot &base) const
    {
        CounterSnapshot d;
        for (std::size_t i = 0; i < kCounterCount; ++i) {
            d.v[i] = v[i] - base.v[i];
        }
        return d;
    }

    double operator[](CounterId id) const
    {
        return static_cast<double>(v[id]);
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Reference route: forces the scalar GEMM microkernel and the scalar
 * batch-distance kernels for its lifetime, then restores the
 * dispatch it found.
 */
class ScalarDispatch
{
  public:
    ScalarDispatch()
        : gemm(nn::GemmEngine::dispatchPath()), simdPath(simd::dispatchPath())
    {
        nn::GemmEngine::setDispatchPath(nn::GemmDispatchPath::ForceScalar);
        simd::setDispatchPath(simd::DispatchPath::ForceScalar);
    }
    ~ScalarDispatch()
    {
        nn::GemmEngine::setDispatchPath(gemm);
        simd::setDispatchPath(simdPath);
    }
    ScalarDispatch(const ScalarDispatch &) = delete;
    ScalarDispatch &operator=(const ScalarDispatch &) = delete;

  private:
    nn::GemmDispatchPath gemm;
    simd::DispatchPath simdPath;
};

/** Reference logits of every pool input, from the scalar route. */
std::vector<nn::Matrix>
referenceLogits(PointCloudModel &model, const std::vector<PointCloud> &pool)
{
    ScalarDispatch scalar;
    InferencePipeline pipeline(model, deployedConfig());
    std::vector<nn::Matrix> refs;
    refs.reserve(pool.size());
    for (const PointCloud &raw : pool) {
        PointCloud cloud = raw;
        if (!sanitizeCloud(cloud).ok()) {
            throw std::runtime_error("reference input fails sanitize");
        }
        refs.push_back(pipeline.run(cloud).logits);
    }
    return refs;
}

/** Per-frame timings of one single-frame run() (all in ms). */
struct FrameRecord
{
    double sanitizeMs = 0.0;
    double runMs = 0.0;
    double sampleMs = 0.0;
    double neighborMs = 0.0;
    double groupMs = 0.0;
    double featureMs = 0.0;
    bool traced = false;

    double frameMs() const { return sanitizeMs + runMs; }
    double otherMs() const
    {
        return runMs - (sampleMs + neighborMs + groupMs + featureMs);
    }
};

/** One set-up: model build, then the first frame end to end. */
struct SetupSample
{
    double buildS = 0.0;
    double firstFrameS = 0.0;
};

/** Outcome bookkeeping shared by every checked output. */
struct Tally
{
    RunOutput &out;
    std::size_t mismatches = 0;
    double worstDiff = 0.0;
    double worstRowsWithin = 1.0;
    double worstAgreement = 1.0;

    /** Count one checked output; false when it failed. */
    bool logits(const nn::Matrix &got, const nn::Matrix &ref,
                const char *where)
    {
        ++out.attempted;
        const LogitCheck c = checkLogits(got, ref);
        worstDiff = std::max(worstDiff, c.maxAbsDiff);
        worstRowsWithin = std::min(worstRowsWithin, c.rowsWithin);
        worstAgreement = std::min(worstAgreement, c.argmaxAgreement);
        if (c.ok) {
            return true;
        }
        ++out.failed;
        out.correct = false;
        if (mismatches++ < 3) {
            std::printf("# WRONG OUTPUT (%s): max|diff|=%.3g rows within "
                        "tolerance=%.4f argmax agreement=%.4f\n",
                        where, c.maxAbsDiff, c.rowsWithin,
                        c.argmaxAgreement);
        }
        return false;
    }

    /** Count one operation that failed without output. */
    void failure(const std::string &why)
    {
        ++out.attempted;
        ++out.failed;
        std::printf("# failed: %s\n", why.c_str());
    }

    void print() const
    {
        std::printf("# output check vs scalar reference: worst max|diff|=%.3g "
                    "worst rows within tolerance=%.4f worst argmax "
                    "agreement=%.4f\n",
                    worstDiff, worstRowsWithin, worstAgreement);
    }
};

bool
moreSetups(const std::vector<SetupSample> &setups)
{
    double spent = 0.0;
    for (const SetupSample &s : setups) {
        spent += s.buildS + s.firstFrameS;
    }
    return setups.size() < kMinSetups ||
           (spent < kSetupBudgetS && setups.size() < kMaxSetups);
}

void
setSetupMetrics(const std::vector<SetupSample> &setups, RunOutput &out)
{
    std::vector<double> total, build, first;
    for (const SetupSample &s : setups) {
        total.push_back(s.buildS + s.firstFrameS);
        build.push_back(s.buildS);
        first.push_back(s.firstFrameS);
    }
    out.metrics["setup_s"] = must(median(total));
    out.metrics["setup.model_build_s"] = must(median(build));
    out.metrics["setup.first_frame_s"] = must(median(first));
}

/**
 * Per-layer metrics of single-frame runs: stage medians and the
 * residual from the same frames, plus counter deltas over them.
 */
void
setLayerMetrics(const std::vector<FrameRecord> &frames,
                const CounterSnapshot &delta, RunOutput &out)
{
    std::vector<double> sanitize, sample, neighbor, group, feature, other,
        share, run, traced, untraced;
    for (const FrameRecord &f : frames) {
        sanitize.push_back(f.sanitizeMs);
        sample.push_back(f.sampleMs);
        neighbor.push_back(f.neighborMs);
        group.push_back(f.groupMs);
        feature.push_back(f.featureMs);
        other.push_back(f.otherMs());
        run.push_back(f.runMs);
        share.push_back(ratio(f.neighborMs, f.frameMs()));
        (f.traced ? traced : untraced).push_back(f.frameMs());
    }
    const double n = static_cast<double>(frames.size());
    const double gflop = delta[kGemmFlops] / n / 1e9;
    const double feature_ms = must(median(feature));
    auto &m = out.metrics;
    m["pointcloud.sanitize_ms"] = must(median(sanitize));
    m["sampling.sample_ms"] = must(median(sample));
    m["sampling.calls_per_frame"] =
        (delta[kSamplerFps] + delta[kSamplerMorton] +
         delta[kSamplerRandom]) /
        n;
    m["neighbor.search_ms"] = must(median(neighbor));
    m["neighbor.share"] = must(median(share));
    m["neighbor.cache_hit_ratio"] = ratio(
        delta[kCacheHits], delta[kCacheHits] + delta[kCacheMisses]);
    m["geometry.simd_fast_share"] =
        ratio(delta[kSimdFast], delta[kSimdFast] + delta[kSimdScalar]);
    m["nn.feature_ms"] = feature_ms;
    m["nn.group_ms"] = must(median(group));
    m["nn.gflop_per_frame"] = gflop;
    m["nn.feature_gflops"] = ratio(gflop, feature_ms / 1000.0);
    m["nn.gemm_fast_share"] =
        ratio(delta[kGemmFast] + delta[kGemmInt8],
              delta[kGemmFast] + delta[kGemmInt8] + delta[kGemmScalar]);
    m["common.scratch_grows_per_frame"] = delta[kScratchGrows] / n;
    m["common.pool_tasks_per_frame"] = delta[kPoolTasks] / n;
    m["core.other_ms"] = must(median(other));
    const double base = must(median(untraced));
    m["trace.overhead_pct"] =
        ratio(must(median(traced)) - base, base) * 100.0;

    // Reconciliation: per frame, stages + other == run() wall by
    // construction; print how the medians of the parts compare with
    // the median of the whole.
    const double parts = m["sampling.sample_ms"] + m["neighbor.search_ms"] +
                         m["nn.group_ms"] + feature_ms + m["core.other_ms"];
    std::printf("# reconcile: stage medians + other = %.3f ms vs run() "
                "p50 = %.3f ms over the same %zu frames\n",
                parts, must(median(run)), frames.size());
}

/** Serve-only metrics read 0 on workloads with no serving layer. */
void
setNoServeMetrics(RunOutput &out)
{
    for (const MetricDecl &d : perLayerMetrics()) {
        if (std::string(d.name).rfind("serve.", 0) == 0) {
            out.metrics[d.name] = 0.0;
        }
    }
}

/**
 * Time one single-frame raw cloud -> sanitizeCloud -> run() -> logits
 * and check the logits. Returns the record, or nothing on failure.
 */
std::optional<FrameRecord>
timedFrame(InferencePipeline &pipeline, const PointCloud &raw,
           const nn::Matrix &ref, std::uint64_t frame, bool traced,
           SpanRecorder &spans, Tally &tally)
{
    PointCloud cloud = raw;
    FrameRecord rec;
    rec.traced = traced;
    const Clock::time_point t0 = Clock::now();
    const Result<SanitizeReport> report = sanitizeCloud(cloud);
    const Clock::time_point t1 = Clock::now();
    if (!report.ok()) {
        tally.failure(report.error().toString());
        return std::nullopt;
    }
    PipelineResult result;
    try {
        result = pipeline.run(cloud);
    } catch (const EdgePcException &e) {
        tally.failure(e.what());
        return std::nullopt;
    }
    const Clock::time_point t2 = Clock::now();
    if (traced) {
        const std::uint64_t id = spans.reserve();
        spans.add("sanitizeCloud", t0, t1, id, frame);
        spans.add("InferencePipeline::run", t1, t2, id, frame);
        spans.record(id, "frame", t0, t2, 0, frame);
    }
    if (!tally.logits(result.logits, ref, "frame")) {
        return std::nullopt;
    }
    rec.sanitizeMs = msBetween(t0, t1);
    rec.runMs = msBetween(t1, t2);
    rec.sampleMs = result.stages.total(kStageSample);
    rec.neighborMs = result.stages.total(kStageNeighbor);
    rec.groupMs = result.stages.total(kStageGroup);
    rec.featureMs = result.stages.total(kStageFeature);
    return rec;
}

const WorkloadSpec &
frameSpec(const std::string &workload_name)
{
    return workload(workload_name == "pnpp-w1" ? "W1" : "W6");
}

} // namespace

// ---------------------------------------------------------------------
// Inputs, output check, spans

std::vector<PointCloud>
makeInputs(const std::string &workload_name, std::uint64_t seed)
{
    // Pool sizes: distinct scenes cycled by the closed loop. dgcnn-w6
    // frames take ~1.5 s, so two scenes already alternate inputs; the
    // scalar reference of each pool input is computed in set-up.
    std::size_t count = 8;
    std::size_t scale = kServePointScale;
    const WorkloadSpec *spec = &workload("W1");
    if (workload_name == "pnpp-w1") {
        count = 4;
        scale = 1;
    } else if (workload_name == "dgcnn-w6") {
        count = 2;
        scale = 1;
        spec = &workload("W6");
    }
    std::vector<PointCloud> pool;
    pool.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        pool.push_back(makeWorkloadCloud(
            *spec, scale, splitmix64(seed * 1000003ull + i)));
    }
    return pool;
}

std::uint64_t
digestInputs(const std::vector<PointCloud> &pool)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](const void *data, std::size_t bytes) {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < bytes; ++i) {
            h = (h ^ p[i]) * 0x100000001b3ull;
        }
    };
    for (const PointCloud &c : pool) {
        const std::uint64_t dims[2] = {c.size(), c.featureDim()};
        mix(dims, sizeof dims);
        mix(c.positions().data(), c.positions().size() * sizeof(Vec3));
        mix(c.features().data(), c.features().size() * sizeof(float));
        mix(c.labels().data(), c.labels().size() * sizeof(std::int32_t));
    }
    return h;
}

LogitCheck
checkLogits(const nn::Matrix &got, const nn::Matrix &ref)
{
    LogitCheck c;
    if (got.rows() != ref.rows() || got.cols() != ref.cols() ||
        ref.rows() == 0 || ref.cols() == 0) {
        return c;
    }
    double ref_max = 0.0;
    for (std::size_t i = 0; i < ref.rows() * ref.cols(); ++i) {
        ref_max = std::max(ref_max, std::abs(double(ref.data()[i])));
    }
    const double tol = kLogitAbsTol + kLogitRelTol * ref_max;
    bool finite = true;
    std::size_t within = 0, agree = 0;
    for (std::size_t r = 0; r < ref.rows(); ++r) {
        std::size_t got_arg = 0, ref_arg = 0;
        double row_diff = 0.0;
        for (std::size_t col = 0; col < ref.cols(); ++col) {
            const double g = got.at(r, col), e = ref.at(r, col);
            finite = finite && std::isfinite(g);
            row_diff = std::max(row_diff, std::abs(g - e));
            got_arg = g > got.at(r, got_arg) ? col : got_arg;
            ref_arg = e > ref.at(r, ref_arg) ? col : ref_arg;
        }
        c.maxAbsDiff = std::max(c.maxAbsDiff, row_diff);
        within += row_diff <= tol ? 1 : 0;
        agree += got_arg == ref_arg ? 1 : 0;
    }
    const double rows = static_cast<double>(ref.rows());
    c.rowsWithin = static_cast<double>(within) / rows;
    c.argmaxAgreement = static_cast<double>(agree) / rows;
    c.ok = finite && c.rowsWithin >= kRowShare &&
           c.argmaxAgreement >= kRowShare;
    return c;
}

SpanRecorder::SpanRecorder(bool enabled) : on(enabled), epoch(Clock::now())
{
    if (on) {
        spans.reserve(1 << 14);
    }
}

void
SpanRecorder::record(std::uint64_t id, const char *name,
                     Clock::time_point start, Clock::time_point end,
                     std::uint64_t parent, std::uint64_t frame)
{
    if (on) {
        spans.push_back({name, start, end, id, parent, frame});
    }
}

std::uint64_t
SpanRecorder::add(const char *name, Clock::time_point start,
                  Clock::time_point end, std::uint64_t parent,
                  std::uint64_t frame)
{
    if (!on) {
        return 0;
    }
    const std::uint64_t id = reserve();
    record(id, name, start, end, parent, frame);
    return id;
}

bool
SpanRecorder::write(const std::string &path) const
{
    std::ofstream os(path);
    os << std::fixed << std::setprecision(3) << "[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const double ts_us = msBetween(epoch, s.start) * 1000.0;
        const double dur_us = msBetween(s.start, s.end) * 1000.0;
        os << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,"
           << "\"tid\":1,\"ts\":" << ts_us << ",\"dur\":" << dur_us
           << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
           << ",\"frame\":" << s.frame << "}}"
           << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    os << "]\n";
    return static_cast<bool>(os);
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------
// pnpp-w1 / dgcnn-w6: one caller, closed loop over a seeded pool

RunOutput
runFrameWorkload(const Options &opts, SpanRecorder &spans)
{
    RunOutput out;
    Tally tally{out};
    const WorkloadSpec &spec = frameSpec(opts.workload);
    const std::vector<PointCloud> pool = makeInputs(opts.workload, opts.seed);

    // Set-up, repeated: model build plus the first frame's lazy
    // initialisation. The last model is the one under test.
    std::unique_ptr<PointCloudModel> model;
    std::vector<SetupSample> setups;
    std::vector<nn::Matrix> setupLogits;
    while (moreSetups(setups)) {
        model.reset();
        const Clock::time_point t0 = Clock::now();
        model = makeWorkloadModel(spec);
        const Clock::time_point t1 = Clock::now();
        InferencePipeline pipeline(*model, deployedConfig());
        PointCloud cloud = pool[0];
        if (!sanitizeCloud(cloud).ok()) {
            throw std::runtime_error("set-up input fails sanitize");
        }
        setupLogits.push_back(pipeline.run(cloud).logits);
        setups.push_back({seconds(t0, t1), seconds(t1, Clock::now())});
    }
    setSetupMetrics(setups, out);

    const std::vector<nn::Matrix> refs = referenceLogits(*model, pool);
    for (const nn::Matrix &logits : setupLogits) {
        tally.logits(logits, refs[0], "set-up frame");
    }

    // Timed closed loop. In the traced run every other frame records
    // spans, so the traced and untraced medians come from interleaved
    // frames of one run.
    InferencePipeline pipeline(*model, deployedConfig());
    std::vector<FrameRecord> frames;
    const CounterSnapshot before = CounterSnapshot::now();
    const Clock::time_point start = Clock::now();
    for (std::uint64_t i = 0; sinceMs(start) < opts.seconds * 1000.0 || i < 3;
         ++i) {
        const std::size_t k = i % pool.size();
        const bool traced = spans.enabled() && i % 2 == 0;
        if (std::optional<FrameRecord> rec =
                timedFrame(pipeline, pool[k], refs[k], i, traced, spans,
                           tally)) {
            frames.push_back(*rec);
        }
    }
    const CounterSnapshot delta = CounterSnapshot::now() - before;
    tally.print();
    if (frames.empty()) {
        return out;
    }

    std::vector<double> frame_ms;
    double busy_ms = 0.0;
    for (const FrameRecord &f : frames) {
        frame_ms.push_back(f.frameMs());
        busy_ms += f.frameMs();
    }
    out.metrics["frame_p50_ms"] = must(median(frame_ms));
    std::printf("frame_p50_ms %.3f ms (n=%zu)\n",
                out.metrics["frame_p50_ms"], frames.size());
    if (std::optional<double> p90 = tailPercentile(frame_ms, 0.90)) {
        std::printf("frame_p90_ms %.3f ms (n=%zu)\n", *p90, frames.size());
    } else {
        std::printf("# frame_p90_ms omitted: %zu frames, %zu needed\n",
                    frames.size(), kMinBeyond * 10);
    }
    std::printf("frames_per_s %.3f 1/s (not gated)\n",
                static_cast<double>(frames.size()) / (busy_ms / 1000.0));
    if (spans.enabled()) {
        setLayerMetrics(frames, delta, out);
        setNoServeMetrics(out);
    }
    return out;
}

// ---------------------------------------------------------------------
// serve-4x2k: four streams through ServingEngine

namespace {

/** Per-phase frame accounting (sent, succeeded, failed). */
struct PhaseCount
{
    std::size_t sent = 0;
    std::size_t succeeded = 0;
    std::size_t failed = 0;

    void print(const char *phase) const
    {
        std::printf("# phase %s: sent=%zu succeeded=%zu failed=%zu\n",
                    phase, sent, succeeded, failed);
    }
};

/** Serve-side counts that feed failed_ratio's per-layer breakdown. */
struct ServeFaults
{
    std::size_t shed = 0;
    std::size_t rejected = 0;
    std::size_t degraded = 0;
};

/**
 * Judge one accepted frame's response: shed, dropped, degraded
 * (served below ladder level 0) and wrong logits all fail it.
 */
bool
judge(const serve::FrameResponse &r, const nn::Matrix &ref, Tally &tally,
      ServeFaults &faults)
{
    if (r.shed) {
        ++faults.shed;
        tally.failure("shed: " + r.error.toString());
        return false;
    }
    if (!r.hasLogits()) {
        tally.failure("dropped: " + r.error.toString());
        return false;
    }
    if (r.ladderLevel > 0 || r.status == FrameStatus::Degraded) {
        ++faults.degraded;
        tally.failure("served degraded");
        return false;
    }
    return tally.logits(r.logits, ref, "served frame");
}

serve::ServingOptions
closedOptions()
{
    serve::ServingOptions o;
    o.maxBatch = kMaxBatch;
    o.streamDefaults.queueCapacity = kBacklogPerStream;
    // Park the admission floor: the backlog is the measurement, not
    // overload, so every frame serves at the full configuration.
    o.admission.highWatermark = kStreams * kBacklogPerStream + 1;
    o.admission.lowWatermark = 1;
    return o;
}

serve::ServingOptions
openOptions()
{
    serve::ServingOptions o;
    o.maxBatch = kMaxBatch;
    o.streamDefaults.queueCapacity = 8;
    o.streamDefaults.backpressure = serve::BackpressurePolicy::DropOldest;
    return o;
}

} // namespace

RunOutput
runServeWorkload(const Options &opts, SpanRecorder &spans)
{
    RunOutput out;
    Tally tally{out};
    ServeFaults faults;
    const std::vector<PointCloud> pool = makeInputs(opts.workload, opts.seed);
    const std::size_t points = pool[0].size();

    // Set-up, repeated: model build, then engine start and the first
    // frame through it.
    std::unique_ptr<PointCloudModel> model;
    std::vector<SetupSample> setups;
    std::vector<serve::FrameResponse> setupResponses;
    while (moreSetups(setups)) {
        model.reset();
        const Clock::time_point t0 = Clock::now();
        model = std::make_unique<PointNetPP>(
            PointNetPPConfig::liteSegmentation(points, kServeClasses), 42);
        const Clock::time_point t1 = Clock::now();
        serve::ServingEngine engine(*model, deployedConfig(), openOptions());
        const serve::StreamId id = engine.openStream();
        serve::SubmitTicket ticket = engine.submit(id, pool[0]);
        if (!ticket.accepted()) {
            throw std::runtime_error("set-up frame not admitted");
        }
        setupResponses.push_back(ticket.response.get());
        setups.push_back({seconds(t0, t1), seconds(t1, Clock::now())});
        engine.drain();
    }
    setSetupMetrics(setups, out);

    const std::vector<nn::Matrix> refs = referenceLogits(*model, pool);
    for (const serve::FrameResponse &r : setupResponses) {
        judge(r, refs[0], tally, faults);
    }

    const double closed_ms =
        opts.seconds * 1000.0 * (opts.trace ? kClosedShareTraced : 1.0);
    const double open_ms = opts.seconds * 1000.0 - closed_ms;
    const CounterSnapshot closed_before = CounterSnapshot::now();

    // Closed phase, alternating two kinds of round on one engine:
    // - backlog: a pre-queued backlog drained for capacity
    //   (serve_closed_fps is the median round);
    // - sync: one frame at a time, timed from submit to response. Its
    //   median is the gated frame_p50_ms: no queueing, and no idle gap
    //   before a frame.
    // Alternating spreads both over the whole phase, so host noise
    // that comes and goes within seconds averages out.
    PhaseCount closed, sync;
    std::vector<double> round_fps, sync_latency;
    std::size_t sync_single = 0;
    std::size_t closed_batched = 0, closed_pipelined = 0, closed_single = 0;
    std::uint64_t frame_id = 0;
    {
        serve::ServingEngine engine(*model, deployedConfig(),
                                    closedOptions());
        std::vector<serve::StreamId> ids;
        for (std::size_t s = 0; s < kStreams; ++s) {
            ids.push_back(engine.openStream());
        }
        const Clock::time_point phase_start = Clock::now();
        while (sinceMs(phase_start) < closed_ms || round_fps.size() < 3) {
            std::vector<PointCloud> backlog;
            std::vector<std::size_t> which;
            for (std::size_t f = 0; f < kStreams * kBacklogPerStream; ++f) {
                which.push_back((frame_id + f) % pool.size());
                backlog.push_back(pool[which.back()]);
            }
            std::vector<serve::SubmitTicket> tickets;
            const Clock::time_point t0 = Clock::now();
            for (std::size_t f = 0; f < backlog.size(); ++f) {
                tickets.push_back(
                    engine.submit(ids[f % kStreams], std::move(backlog[f])));
            }
            for (serve::SubmitTicket &t : tickets) {
                if (t.accepted()) {
                    t.response.wait();
                }
            }
            const Clock::time_point t1 = Clock::now();
            spans.add("serve.closed_round", t0, t1, 0, frame_id);
            const std::size_t succeeded_before = closed.succeeded;
            for (std::size_t f = 0; f < tickets.size(); ++f) {
                ++closed.sent;
                if (!tickets[f].accepted()) {
                    ++faults.rejected;
                    ++closed.failed;
                    tally.failure(std::string("rejected: ") +
                                  serve::admitStatusName(tickets[f].admit));
                    continue;
                }
                const serve::FrameResponse r = tickets[f].response.get();
                const bool ok = judge(r, refs[which[f]], tally, faults);
                ++(ok ? closed.succeeded : closed.failed);
                closed_batched += r.batched ? 1 : 0;
                closed_pipelined += r.pipelined ? 1 : 0;
                closed_single += r.batched || r.pipelined ? 0 : 1;
            }
            round_fps.push_back(
                static_cast<double>(closed.succeeded - succeeded_before) /
                seconds(t0, t1));
            frame_id += tickets.size();

            for (std::size_t f = 0; f < kSyncRoundFrames; ++f, ++frame_id) {
                const std::size_t k = frame_id % pool.size();
                const Clock::time_point s0 = Clock::now();
                serve::SubmitTicket ticket =
                    engine.submit(ids[f % kStreams], pool[k]);
                ++sync.sent;
                if (!ticket.accepted()) {
                    ++faults.rejected;
                    ++sync.failed;
                    sync_latency.push_back(INFINITY);
                    tally.failure(std::string("rejected: ") +
                                  serve::admitStatusName(ticket.admit));
                    continue;
                }
                const serve::FrameResponse r = ticket.response.get();
                const Clock::time_point s1 = Clock::now();
                spans.add("serve.sync_frame", s0, s1, 0, frame_id);
                const bool ok = judge(r, refs[k], tally, faults);
                ++(ok ? sync.succeeded : sync.failed);
                sync_single += r.batched || r.pipelined ? 0 : 1;
                sync_latency.push_back(ok ? msBetween(s0, s1) : INFINITY);
            }
        }
        engine.drain();
    }
    // Sync frames take the single-frame route, which counts no batch.
    const CounterSnapshot closed_delta =
        CounterSnapshot::now() - closed_before;

    // Open phase: a fixed absolute offer, round-robin over the
    // streams. The generator sleeps until each due time (a spinning
    // generator would take a core from the engine) and every frame is
    // timed from its due time to its response.
    const double interval_ms = 1000.0 / kOpenFps;
    const std::size_t open_frames =
        static_cast<std::size_t>(open_ms / interval_ms);
    std::vector<std::vector<Clock::time_point>> done(
        kStreams, std::vector<Clock::time_point>(open_frames / kStreams + 1));
    PhaseCount open;
    std::vector<double> latency, lag, queue, service, submit_us;
    if (open_frames > 0) {
        serve::ServingOptions o = openOptions();
        o.onResponse = [&done](const serve::FrameResponse &r) {
            if (r.stream < done.size() && r.seq < done[r.stream].size()) {
                done[r.stream][r.seq] = Clock::now();
            }
        };
        serve::ServingEngine engine(*model, deployedConfig(), o);
        std::vector<serve::StreamId> ids;
        for (std::size_t s = 0; s < kStreams; ++s) {
            ids.push_back(engine.openStream());
        }
        struct Sent
        {
            serve::SubmitTicket ticket;
            Clock::time_point due;
            Clock::time_point submitted;
            std::size_t input;
            std::uint64_t span;
        };
        std::vector<Sent> sent;
        sent.reserve(open_frames);
        // Judges frame f and releases its response, so the run never
        // holds more than the frames in flight.
        const auto settle = [&](std::size_t f) {
            Sent &s = sent[f];
            ++open.sent;
            if (!s.ticket.accepted()) {
                ++faults.rejected;
                ++open.failed;
                latency.push_back(INFINITY);
                tally.failure(std::string("rejected: ") +
                              serve::admitStatusName(s.ticket.admit));
                return;
            }
            const serve::FrameResponse r = s.ticket.response.get();
            const bool ok = judge(r, refs[s.input], tally, faults);
            ++(ok ? open.succeeded : open.failed);
            const Clock::time_point end = done[r.stream][r.seq];
            latency.push_back(ok ? msBetween(s.due, end) : INFINITY);
            spans.add("serve.submit_to_response", s.submitted, end, s.span,
                      frame_id + f);
            spans.record(s.span, "serve.frame", s.due, end, 0, frame_id + f);
            if (ok) {
                queue.push_back(r.queueMs);
                service.push_back(r.totalMs - r.queueMs);
            }
        };
        const auto ready = [](const Sent &s) {
            return !s.ticket.accepted() ||
                   s.ticket.response.wait_for(std::chrono::seconds(0)) ==
                       std::future_status::ready;
        };
        std::size_t settled = 0;
        const Clock::time_point start =
            Clock::now() + std::chrono::milliseconds(5);
        for (std::size_t f = 0; f < open_frames; ++f) {
            for (; settled < sent.size() && ready(sent[settled]); ++settled) {
                settle(settled);
            }
            const std::size_t k = (frame_id + f) % pool.size();
            PointCloud frame = pool[k];
            const Clock::time_point due =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                static_cast<double>(f) * interval_ms));
            std::this_thread::sleep_until(due);
            const Clock::time_point s0 = Clock::now();
            serve::SubmitTicket ticket =
                engine.submit(ids[f % kStreams], std::move(frame));
            const Clock::time_point s1 = Clock::now();
            lag.push_back(msBetween(due, s0));
            submit_us.push_back(msBetween(s0, s1) * 1000.0);
            const std::uint64_t span = spans.reserve();
            spans.add("ServingEngine::submit", s0, s1, span, frame_id + f);
            sent.push_back({std::move(ticket), due, s0, k, span});
        }
        engine.drain();
        for (; settled < sent.size(); ++settled) {
            settle(settled);
        }
        frame_id += sent.size();
    }

    closed.print("closed-backlog");
    sync.print("closed-sync");
    open.print("open");
    std::printf("# closed-sync rounds: %zu of %zu frames on the single-frame "
                "route\n",
                sync_single, sync.succeeded);
    tally.print();
    out.metrics["frame_p50_ms"] = must(median(sync_latency));
    std::printf("serve_sync_p50_ms %.3f ms (gated as frame_p50_ms; n=%zu)\n",
                out.metrics["frame_p50_ms"], sync_latency.size());
    std::printf("serve_closed_fps %.3f 1/s (not gated; median of %zu rounds "
                "of %zu frames)\n",
                must(median(round_fps)), round_fps.size(),
                kStreams * kBacklogPerStream);
    if (latency.empty()) {
        std::printf("# serve_p50_ms and serve_p99_ms: the open phase runs in "
                    "the traced run only\n");
    } else {
        std::printf("serve_p50_ms %.3f ms (not gated; n=%zu, offered %.0f "
                    "frames/s)\n",
                    must(median(latency)), latency.size(), kOpenFps);
        if (std::optional<double> p99 = tailPercentile(latency, 0.99)) {
            std::printf("serve_p99_ms %.3f ms (n=%zu)\n", *p99,
                        latency.size());
        } else {
            std::printf("# serve_p99_ms omitted: %zu frames, %zu needed\n",
                        latency.size(), kMinBeyond * 100);
        }
    }

    if (!spans.enabled()) {
        return out;
    }

    // Per-layer serve metrics: queueing and service from the open
    // phase, batching routes from the closed phase's backlog rounds.
    auto &m = out.metrics;
    const auto tail = [&](const char *name, const std::vector<double> &v) {
        if (std::optional<double> p = tailPercentile(v, 0.99)) {
            m[name] = *p;
        } else {
            std::printf("# %s omitted: %zu samples, %zu needed\n", name,
                        v.size(), kMinBeyond * 100);
        }
    };
    m["serve.queue_ms_p50"] = must(median(queue));
    tail("serve.queue_ms_p99", queue);
    tail("serve.generator_lag_ms_p99", lag);
    m["serve.service_ms_p50"] = must(median(service));
    const double closed_frames =
        static_cast<double>(closed_batched + closed_pipelined + closed_single);
    m["serve.batch_size_mean"] = ratio(
        closed_frames,
        closed_delta[kServeBatches] + static_cast<double>(closed_single));
    m["serve.pipelined_share"] =
        ratio(static_cast<double>(closed_pipelined), closed_frames);
    m["serve.batched_share"] =
        ratio(static_cast<double>(closed_batched), closed_frames);
    m["serve.submit_us_p50"] = must(median(submit_us));
    m["serve.shed"] = static_cast<double>(faults.shed);
    m["serve.rejected"] = static_cast<double>(faults.rejected);
    m["serve.degraded"] = static_cast<double>(faults.degraded);

    // ServingEngine does not expose stage times, so the stage and
    // counter metrics come from the open phase's route: the same
    // inputs and model through single-frame InferencePipeline::run.
    InferencePipeline pipeline(*model, deployedConfig());
    std::vector<FrameRecord> frames;
    const CounterSnapshot before = CounterSnapshot::now();
    for (std::size_t i = 0; i < kProfileFrames; ++i) {
        const std::size_t k = i % pool.size();
        if (std::optional<FrameRecord> rec =
                timedFrame(pipeline, pool[k], refs[k], frame_id + i,
                           i % 2 == 0, spans, tally)) {
            frames.push_back(*rec);
        }
    }
    if (!frames.empty()) {
        setLayerMetrics(frames, CounterSnapshot::now() - before, out);
    }
    return out;
}

} // namespace perfbench
