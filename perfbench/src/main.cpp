/**
 * @file
 * End-to-end benchmark of EdgePC under the deployed S+N+F
 * configuration. Drives the library only through its public entry
 * points (workload factories, sanitizeCloud, InferencePipeline::run,
 * ServingEngine, the metrics registry).
 *
 *   perfbench --workload <pnpp-w1|dgcnn-w6|serve-4x2k> --seed <n>
 *             --seconds <s> --trace <0|1> [--trace-out <file>]
 *             [--git-sha <sha>]
 *   perfbench --describe              # declared workloads and metrics
 *   perfbench --inputs-digest <workload> <seed>
 *
 * A run prints provenance and every metric with its unit, then, as
 * its last line, one JSON object {correct, attempted, failed,
 * metrics}: the end-to-end metrics when --trace 0, the per-layer
 * metrics when --trace 1. It exits 1 when an output fails its check.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <set>
#include <string>
#include <utility>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "core/staged_pipeline.hpp"
#include "geometry/simd_distance.hpp"
#include "nn/delayed_agg.hpp"
#include "nn/gemm.hpp"

extern char **environ;

namespace perfbench {

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"pnpp-w1", "dgcnn-w6",
                                                   "serve-4x2k"};
    return names;
}

const std::vector<MetricDecl> &
endToEndMetrics()
{
    static const std::vector<MetricDecl> decls = {
        {"frame_p50_ms", "ms"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return decls;
}

const std::vector<MetricDecl> &
perLayerMetrics()
{
    static const std::vector<MetricDecl> decls = {
        {"pointcloud.sanitize_ms", "ms"},
        {"sampling.sample_ms", "ms"},
        {"sampling.calls_per_frame", "count"},
        {"neighbor.search_ms", "ms"},
        {"neighbor.share", "ratio"},
        {"neighbor.cache_hit_ratio", "ratio"},
        {"geometry.simd_fast_share", "ratio"},
        {"nn.feature_ms", "ms"},
        {"nn.group_ms", "ms"},
        {"nn.gflop_per_frame", "GFLOP"},
        {"nn.feature_gflops", "GFLOP/s"},
        {"nn.gemm_fast_share", "ratio"},
        {"common.scratch_grows_per_frame", "count"},
        {"common.pool_tasks_per_frame", "count"},
        {"core.other_ms", "ms"},
        {"serve.queue_ms_p50", "ms"},
        {"serve.queue_ms_p99", "ms"},
        {"serve.generator_lag_ms_p99", "ms"},
        {"serve.service_ms_p50", "ms"},
        {"serve.batch_size_mean", "count"},
        {"serve.pipelined_share", "ratio"},
        {"serve.batched_share", "ratio"},
        {"serve.submit_us_p50", "us"},
        {"serve.shed", "count"},
        {"serve.rejected", "count"},
        {"serve.degraded", "count"},
        {"setup.model_build_s", "s"},
        {"setup.first_frame_s", "s"},
        {"trace.overhead_pct", "%"},
    };
    return decls;
}

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>] "
                 "[--git-sha <sha>]\n       perfbench --describe\n"
                 "       perfbench --inputs-digest <workload> <seed>\n",
                 why);
    std::exit(2);
}

bool
knownWorkload(const std::string &name)
{
    for (const std::string &w : workloadNames()) {
        if (w == name) {
            return true;
        }
    }
    return false;
}

std::uint64_t
parseSeed(const char *text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0') {
        usage("--seed takes a non-negative integer");
    }
    return v;
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            usage(("missing value for " + arg).c_str());
        }
        const char *value = argv[++i];
        if (arg == "--workload") {
            o.workload = value;
        } else if (arg == "--seed") {
            o.seed = parseSeed(value);
        } else if (arg == "--seconds") {
            char *end = nullptr;
            o.seconds = std::strtod(value, &end);
            if (end == value || *end != '\0' || !(o.seconds > 0.0) ||
                o.seconds > 3600.0) {
                usage("--seconds takes a number in (0, 3600]");
            }
        } else if (arg == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
                usage("--trace takes 0 or 1");
            }
            o.trace = value[0] == '1';
            have_trace = true;
        } else if (arg == "--trace-out") {
            o.traceOut = value;
        } else if (arg == "--git-sha") {
            o.gitSha = value;
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }
    if (!knownWorkload(o.workload)) {
        usage("--workload must name a declared workload");
    }
    if (!have_trace) {
        usage("--trace is required");
    }
    return o;
}

void
describe()
{
    std::printf("{\"workloads\": [");
    for (std::size_t i = 0; i < workloadNames().size(); ++i) {
        std::printf("%s\"%s\"", i ? ", " : "", workloadNames()[i].c_str());
    }
    const auto list = [](const char *key,
                         const std::vector<MetricDecl> &decls) {
        std::printf("], \"%s\": [", key);
        for (std::size_t i = 0; i < decls.size(); ++i) {
            std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\"}",
                        i ? ", " : "", decls[i].name, decls[i].unit);
        }
    };
    list("end_to_end", endToEndMetrics());
    list("per_layer", perLayerMetrics());
    std::printf("]}\n");
}

std::string
loadAverage()
{
    double load[3] = {0.0, 0.0, 0.0};
    if (getloadavg(load, 3) != 3) {
        return "unavailable";
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.2f %.2f %.2f", load[0], load[1],
                  load[2]);
    return buf;
}

/** Aggregate CPU time from /proc/stat: {steal, total} in ticks. */
std::pair<double, double>
cpuTicks()
{
    std::FILE *f = std::fopen("/proc/stat", "r");
    double v[8] = {};
    const int n = f != nullptr
                      ? std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf",
                                    &v[0], &v[1], &v[2], &v[3], &v[4], &v[5],
                                    &v[6], &v[7])
                      : 0;
    if (f != nullptr) {
        std::fclose(f);
    }
    double total = 0.0;
    for (double t : v) {
        total += t;
    }
    return n == 8 ? std::make_pair(v[7], total) : std::make_pair(0.0, 0.0);
}

/** Every EDGEPC_* variable in the environment, as NAME=value. */
std::vector<std::string>
edgepcEnvironment()
{
    std::vector<std::string> vars;
    for (char **e = environ; e != nullptr && *e != nullptr; ++e) {
        if (std::strncmp(*e, "EDGEPC_", 7) == 0) {
            vars.emplace_back(*e);
        }
    }
    return vars;
}

void
printProvenance(const Options &o, const std::vector<std::string> &env)
{
    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "config=S+N+F git_sha=%s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0, o.gitSha.c_str());
    std::printf("# nproc=%ld pool_concurrency=%zu simd_path=%s gemm_path=%s "
                "delayed_agg=%s pipeline=%s\n",
                sysconf(_SC_NPROCESSORS_ONLN),
                edgepc::ThreadPool::globalPool().concurrency(),
                edgepc::simd::activePathName(),
                edgepc::nn::GemmEngine::activeKernelName(),
                edgepc::nn::delayedAggModeName(),
                edgepc::pipelineModeName());
    std::string joined;
    for (const std::string &v : env) {
        joined += (joined.empty() ? "" : " ") + v;
    }
    std::printf("# edgepc_env=%s\n", joined.empty() ? "none" : joined.c_str());
    std::printf("# loadavg_start=%s\n", loadAverage().c_str());
}

/** The declared metrics of this run mode, checked against what the
    workload measured: a missing, non-finite or undeclared metric is a
    benchmark defect, never papered over. */
bool
emit(const Options &o, const RunOutput &out,
     std::pair<double, double> startTicks)
{
    std::set<std::string> declared;
    for (const auto *list : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricDecl &d : *list) {
            declared.insert(d.name);
        }
    }
    bool complete = true;
    for (const auto &entry : out.metrics) {
        if (!declared.count(entry.first)) {
            std::printf("# undeclared metric %s\n", entry.first.c_str());
            complete = false;
        }
    }
    std::string json;
    for (const MetricDecl &d : o.trace ? perLayerMetrics()
                                       : endToEndMetrics()) {
        const auto it = out.metrics.find(d.name);
        if (it == out.metrics.end() || !std::isfinite(it->second)) {
            std::printf("# metric %s missing or not finite\n", d.name);
            complete = false;
            continue;
        }
        if (o.trace) {
            std::printf("%s %.6g %s\n", d.name, it->second, d.unit);
        }
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      json.empty() ? "" : ", ", d.name, it->second, d.unit);
        json += buf;
    }
    if (!complete) {
        return false;
    }
    if (!o.trace) {
        std::printf("setup_s %.4f s\npeak_rss_mb %.1f MB\n",
                    out.metrics.at("setup_s"), out.metrics.at("peak_rss_mb"));
    }
    std::printf("failed_ratio %.6g (%llu failed of %llu attempted)\n",
                out.attempted ? static_cast<double>(out.failed) /
                                    static_cast<double>(out.attempted)
                              : 0.0,
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));
    std::printf("# loadavg_end=%s\n", loadAverage().c_str());
    const auto [steal, total] = cpuTicks();
    const double steal_share =
        total > startTicks.second
            ? (steal - startTicks.first) / (total - startTicks.second)
            : 0.0;
    std::printf("# cpu_steal_pct=%.2f (share of host CPU time taken by "
                "other guests during the run)\n",
                100.0 * steal_share);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                out.correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed), json.c_str());
    return true;
}

int
run(const Options &o)
{
    const std::vector<std::string> env = edgepcEnvironment();
    printProvenance(o, env);
    const std::pair<double, double> start_ticks = cpuTicks();
    if (!env.empty()) {
        std::printf("# refusing to run: EDGEPC_* overrides change the "
                    "deployed configuration\n");
        return 2;
    }
    SpanRecorder spans(o.trace);
    RunOutput out = o.workload == "serve-4x2k" ? runServeWorkload(o, spans)
                                               : runFrameWorkload(o, spans);
    out.metrics["peak_rss_mb"] = peakRssMb();
    if (out.attempted == 0) {
        std::printf("# no operation completed\n");
        return 1;
    }
    if (!o.traceOut.empty() && spans.enabled()) {
        if (!spans.write(o.traceOut)) {
            std::printf("# could not write spans to %s\n", o.traceOut.c_str());
            return 1;
        }
        std::printf("# %zu spans written to %s\n", spans.size(),
                    o.traceOut.c_str());
    }
    std::fflush(stdout);
    const bool emitted = emit(o, out, start_ticks);
    if (!out.correct) {
        return 1;
    }
    return emitted ? 0 : 3;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    if (argc == 2 && std::strcmp(argv[1], "--describe") == 0) {
        describe();
        return 0;
    }
    if (argc == 4 && std::strcmp(argv[1], "--inputs-digest") == 0) {
        if (!knownWorkload(argv[2])) {
            usage("--inputs-digest needs a declared workload");
        }
        std::printf("%016llx\n",
                    static_cast<unsigned long long>(digestInputs(
                        makeInputs(argv[2], parseSeed(argv[3])))));
        return 0;
    }
    try {
        return run(parse(argc, argv));
    } catch (const std::exception &e) {
        std::printf("# error: %s\n", e.what());
        return 1;
    }
}
