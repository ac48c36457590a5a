/**
 * @file
 * Wall-time attribution report for a large-n polymul.
 *
 * Runs a warmed negacyclic polymul at n = 2^16 (direct NTT plans) on a
 * serial engine, then breaks the measured wall time down by telemetry
 * span SELF time — duration minus same-thread child span durations —
 * so the table's percentages sum to (at most) 100% instead
 * of double-counting nested phases. Because self times partition each
 * root span exactly, the sum over every instrumented site is the
 * telemetry subsystem's coverage of the workload: the report fails
 * (exit 1) if less than 95% of the wall time is attributed to named
 * spans, which is the guard that keeps the instrumentation honest as
 * kernels evolve.
 *
 * Flags:
 *   --snapshot <path>   write telemetry::snapshotJson() to <path>
 *   --trace <path>      record a Chrome trace of the measured run and
 *                       write it to <path> (load in chrome://tracing or
 *                       https://ui.perfetto.dev)
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "rns/rns.h"
#include "telemetry/telemetry.h"

int
main(int argc, char** argv)
{
    using namespace mqx;

    const char* snapshot_path = nullptr;
    const char* trace_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--snapshot") == 0 && i + 1 < argc)
            snapshot_path = argv[++i];
        else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc)
            trace_path = argv[++i];
        else {
            std::fprintf(stderr,
                         "usage: %s [--snapshot out.json] [--trace "
                         "trace.json]\n",
                         argv[0]);
            return 2;
        }
    }

    if (!telemetry::compiledIn()) {
        std::printf("telemetry spans compiled out (MQX_TELEMETRY=OFF); "
                    "nothing to report\n");
        return 0;
    }
    telemetry::setEnabled(true);

    // Serial engine: every span lands on this thread, so span self
    // times partition the measured wall time directly.
    rns::RnsBasis basis(40, 17, 2);
    const size_t n = size_t{1} << 16;
    engine::Engine engine(bestBackend(), /*threads=*/1);
    auto a = rns::randomPolynomial(basis, n, 0xA11CE);
    auto b = rns::randomPolynomial(basis, n, 0xB0B);
    rns::RnsPolynomial c(basis, n);

    std::printf("negacyclic polymul: n = %zu, %zu channels, "
                "backend %s, serial engine\n",
                n, basis.size(), backendName(engine.backend()).c_str());

    // Warmup: builds plans/tables and faults in every buffer, so the
    // measured loop is the steady state the attribution should reflect.
    engine.polymulNegacyclicInto(a, b, c);
    telemetry::resetAll();
    if (trace_path)
        telemetry::enableTracing(1 << 16);

    const int kIters = 4;
    const uint64_t wall_start = telemetry::nowNs();
    for (int it = 0; it < kIters; ++it)
        engine.polymulNegacyclicInto(a, b, c);
    const uint64_t wall_ns = telemetry::nowNs() - wall_start;

    // Every instrumented site on (or under) this workload's path. The
    // coverage check below is what notices when a new hot phase ships
    // without a span (or without being added here).
    const char* kSites[] = {
        "engine.polymul",     "rns.channel.polymul", "negacyclic.polymul",
        "negacyclic.forward", "negacyclic.inverse",  "negacyclic.pointwise",
        "plancache.build",
    };

    std::printf("\n%-24s %8s %10s %10s %7s %10s %10s %10s\n", "span",
                "count", "total_ms", "self_ms", "self%", "p50_us",
                "p95_us", "max_us");
    uint64_t attributed_ns = 0;
    for (const char* name : kSites) {
        telemetry::SpanSite& site = telemetry::spanSite(name);
        telemetry::HistogramSnapshot s = site.hist.snapshot();
        if (s.count == 0)
            continue;
        const uint64_t self = site.self_ns.value();
        attributed_ns += self;
        std::printf("%-24s %8llu %10.3f %10.3f %6.2f%% %10.3f %10.3f "
                    "%10.3f\n",
                    name, static_cast<unsigned long long>(s.count),
                    s.sum_ns / 1e6, self / 1e6,
                    100.0 * static_cast<double>(self) /
                        static_cast<double>(wall_ns),
                    s.p50_ns / 1e3, s.p95_ns / 1e3, s.max_ns / 1e3);
    }

    const double coverage = 100.0 * static_cast<double>(attributed_ns) /
                            static_cast<double>(wall_ns);
    std::printf("\nwall time: %.3f ms over %d iterations\n", wall_ns / 1e6,
                kIters);
    std::printf("attributed to named spans: %.3f ms (%.2f%% coverage)\n",
                attributed_ns / 1e6, coverage);

    if (snapshot_path) {
        std::ofstream out(snapshot_path);
        out << telemetry::snapshotJson() << "\n";
        std::printf("snapshot written to %s\n", snapshot_path);
    }
    if (trace_path) {
        std::ofstream out(trace_path);
        out << telemetry::traceJson() << "\n";
        telemetry::disableTracing();
        std::printf("trace written to %s (load in chrome://tracing)\n",
                    trace_path);
    }

    if (coverage < 95.0) {
        std::fprintf(stderr,
                     "FAIL: only %.2f%% of wall time attributed "
                     "(instrumentation gap)\n",
                     coverage);
        return 1;
    }
    std::printf("OK: coverage >= 95%%\n");
    return 0;
}
