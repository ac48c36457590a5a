/**
 * @file
 * perfbench: the repository's end-to-end benchmark program.
 *
 *   perfbench --workload <polymul_32k|fma8_4k|svc_open_1k> --seed <n>
 *             --seconds <s> --trace <0|1> [--trace-out <file>]
 *             [--revision <text>]
 *
 * Prints a human-readable report, one `config` JSON line recording the
 * host and every knob, and as the LAST line one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
 * end-to-end metrics, --trace 1 the per-layer ladder. Any result that
 * differs from its reference makes the exit code 1.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>

#include "common.h"
#include "core/cpu_features.h"

extern char** environ;

namespace perfbench {
namespace {

/** Per-layer metrics every traced run reports, in output order. */
const Metric kLayerMetrics[] = {
    {"ntt.fwd_ns", 0, "ns"},
    {"ntt.inv_ns", 0, "ns"},
    {"ntt.fwd_batch_ns_per_lane", 0, "ns"},
    {"ntt.pointwise_acc_ns", 0, "ns"},
    {"ntt.bytes_computed", 0, "bytes"},
    {"ntt.floor_ratio", 0, "ratio"},
    {"rns.polymul_channel_ns", 0, "ns"},
    {"rns.polymul_vs_fwdinv", 0, "ratio"},
    {"rns.fma_channel_ns", 0, "ns"},
    {"engine.op_ns", 0, "ns"},
    {"engine.efficiency", 0, "ratio"},
    {"engine.plan_misses_timed", 0, "count"},
    {"engine.pool_tasks_per_op", 0, "tasks/op"},
    {"engine.pool_steals_per_op", 0, "tasks/op"},
    {"engine.caller_tasks_per_op", 0, "tasks/op"},
    {"engine.leases_per_op", 0, "leases/op"},
    {"net.encode_us", 0, "us"},
    {"net.decode_us", 0, "us"},
    {"net.request_vs_engine", 0, "ratio"},
    {"net.coalesced_share", 0, "ratio"},
    {"net.batch_mean", 0, "requests/batch"},
    {"net.shed", 0, "count"},
    {"net.deadline_misses", 0, "count"},
    {"net.protocol_errors", 0, "count"},
    {"net.client_retries", 0, "count"},
    {"net.leased_at_drain", 0, "count"},
    {"proc.cpu_ms_per_op", 0, "ms"},
    {"loadgen.late_p99_us", 0, "us"},
    {"trace.overhead_pct", 0, "%"},
    {"error_rate", 0, "ratio"},
};

/**
 * Knobs the library reads from the environment behind the caller's
 * back. The benchmark sets every one explicitly, so a set variable
 * would make a run silently differ from its recorded configuration.
 */
bool
refuseLibraryEnv()
{
    static const char* const kVars[] = {"MQX_NTT_L2_BUDGET",
                                        "MQX_PREFETCH_DIST", "MQX_THREADS",
                                        "MQX_TELEMETRY"};
    std::set<std::string> found;
    for (const char* v : kVars)
        if (std::getenv(v))
            found.insert(v);
    for (char** e = environ; e && *e; ++e)
        if (std::strncmp(*e, "MQX_SERVER_", 11) == 0)
            found.insert(std::string(*e).substr(0, std::strcspn(*e, "=")));
    for (const std::string& v : found)
        std::fprintf(stderr,
                     "perfbench: refusing to run with %s set; the library "
                     "would read it behind the benchmark's pinned "
                     "configuration. Unset it and run again.\n",
                     v.c_str());
    return !found.empty();
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <polymul_32k|fma8_4k|"
                 "svc_open_1k> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>] [--revision <text>]\n");
    return 2;
}

/**
 * The measured ops are split into kWindows consecutive windows of equal
 * sample count; each end-to-end throughput and latency figure is the
 * median over windows, so a few seconds of host noise move one window,
 * not the result.
 */
constexpr size_t kWindows = 5;

struct Window
{
    size_t samples = 0;
    double throughput = 0;
    double p50 = 0;
    Tail tail;
};

std::vector<Window>
windows(const Report& r)
{
    const size_t n = r.latency_ns.size();
    const size_t k = std::min(kWindows, n);
    std::vector<Window> out;
    uint64_t prev_done = r.start_ns;
    for (size_t w = 0; w < k; ++w) {
        const size_t lo = w * n / k, hi = (w + 1) * n / k;
        std::vector<uint64_t> lat(r.latency_ns.begin() + lo,
                                  r.latency_ns.begin() + hi);
        std::sort(lat.begin(), lat.end());
        const uint64_t done = *std::max_element(r.done_ns.begin() + lo,
                                                r.done_ns.begin() + hi);
        Window win;
        win.samples = hi - lo;
        win.throughput = done > prev_done
                             ? static_cast<double>(hi - lo) * 1e9 /
                                   static_cast<double>(done - prev_done)
                             : 0;
        win.p50 = quantileSorted(lat, 0.5);
        win.tail = tailOf(lat);
        prev_done = done;
        out.push_back(win);
    }
    return out;
}

void
printMetrics(const std::vector<Metric>& metrics, bool correct,
             const Report& r)
{
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(r.attempted);
    line += ", \"failed\": " + std::to_string(r.failed);
    line += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        line += (i ? ", " : "") + jsonString(m.name) +
                ": {\"value\": " + jsonNumber(m.value) +
                ", \"unit\": " + jsonString(m.unit) + "}";
    }
    std::printf("%s}}\n", line.c_str());
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    Options opt;
    bool have_workload = false, have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char* val = argv[++i];
        if (arg == "--workload") {
            opt.workload = val;
            have_workload = true;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(val, nullptr, 10);
            have_seed = true;
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(val, nullptr);
        } else if (arg == "--trace") {
            opt.trace = std::strcmp(val, "1") == 0;
        } else if (arg == "--trace-out") {
            opt.trace_out = val;
        } else if (arg == "--revision") {
            opt.revision = val;
        } else {
            return usage();
        }
    }
    if (!have_workload || !have_seed || !(opt.seconds > 0))
        return usage();
    if (refuseLibraryEnv())
        return 2;

    int (*run)(const Options&, Report&) = nullptr;
    if (opt.workload == "polymul_32k")
        run = runPolymul32k;
    else if (opt.workload == "fma8_4k")
        run = runFma8_4k;
    else if (opt.workload == "svc_open_1k")
        run = runSvcOpen1k;
    else
        return usage();

    Report report;
    if (const int rc = run(opt, report))
        return rc;

    const mqx::CpuFeatures& cpu = mqx::hostCpuFeatures();
    std::string config = "config {\"workload\": " + jsonString(opt.workload) +
                         ", \"seed\": " + std::to_string(opt.seed) +
                         ", \"seconds\": " + jsonNumber(opt.seconds) +
                         ", \"trace\": " + (opt.trace ? "1" : "0") +
                         ", \"cpu_brand\": " + jsonString(cpu.brand) +
                         ", \"nproc\": " +
                         std::to_string(std::thread::hardware_concurrency()) +
                         ", \"revision\": " + jsonString(opt.revision);
    for (const auto& [key, value] : report.config)
        config += ", " + jsonString(key) + ": " + value;
    std::printf("%s}\n", config.c_str());

    const bool correct = report.mismatches == 0;
    const double error_rate =
        report.attempted ? static_cast<double>(report.failed) /
                               static_cast<double>(report.attempted)
                         : 1.0;
    std::printf("ops: attempted %llu, failed %llu, mismatched %llu, "
                "error_rate %.6f\n",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.mismatches),
                error_rate);

    std::vector<Metric> metrics;
    if (!opt.trace) {
        std::vector<uint64_t> sorted = report.latency_ns;
        std::sort(sorted.begin(), sorted.end());
        std::printf("latency us over the run (%zu samples): min %.1f "
                    "p10 %.1f p50 %.1f p90 %.1f p99 %.1f max %.1f\n",
                    sorted.size(), quantileSorted(sorted, 0) / 1e3,
                    quantileSorted(sorted, 0.1) / 1e3,
                    quantileSorted(sorted, 0.5) / 1e3,
                    quantileSorted(sorted, 0.9) / 1e3,
                    quantileSorted(sorted, 0.99) / 1e3,
                    quantileSorted(sorted, 1.0) / 1e3);
        std::vector<double> tput, p50, tail;
        for (const Window& w : windows(report)) {
            std::printf("window: %zu samples, %.3f ops/s, p50 %.1f us, "
                        "tail %s %.1f us (%zu samples beyond it)\n",
                        w.samples, w.throughput, w.p50 / 1e3,
                        w.tail.label.c_str(), w.tail.value / 1e3,
                        w.tail.beyond);
            tput.push_back(w.throughput);
            p50.push_back(w.p50);
            tail.push_back(w.tail.value);
        }
        metrics = {
            {"throughput_ops_s", median(tput), "ops/s"},
            {"latency_p50_us", median(p50) / 1e3, "us"},
            {"latency_tail_us", median(tail) / 1e3, "us"},
            {"success_rate", 1.0 - error_rate, "ratio"},
            {"setup_s", median(report.setup_s), "s"},
            {"rss_peak_mib", rssPeakMib(), "MiB"},
        };
    } else {
        std::string skipped;
        for (const Metric& want : kLayerMetrics) {
            Metric m = want;
            if (m.name == "error_rate") {
                m.value = error_rate;
            } else {
                bool found = false;
                for (const Metric& got : report.layer)
                    if (got.name == m.name) {
                        m.value = got.value;
                        found = true;
                    }
                if (!found)
                    skipped += (skipped.empty() ? "" : ", ") + m.name;
            }
            metrics.push_back(m);
        }
        if (!skipped.empty())
            std::printf("not exercised by %s (reported as 0): %s\n",
                        opt.workload.c_str(), skipped.c_str());
    }
    for (const Metric& m : metrics)
        std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    printMetrics(metrics, correct, report);
    return correct ? 0 : 1;
}
