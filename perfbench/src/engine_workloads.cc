/**
 * @file
 * The two Engine workloads: a single caller in a closed loop of
 * Engine::polymulNegacyclicInto (polymul_32k) or Engine::fmaBatchInto
 * (fma8_4k), one pool thread, on the CPU's best kernel tier. Why these
 * shapes: perfbench/README.md.
 */
#include <cstdio>
#include <memory>
#include <vector>

#include "common.h"
#include "engine/engine.h"
#include "ladder.h"
#include "telemetry/telemetry.h"
#include "trace.h"

namespace perfbench {

namespace engine = mqx::engine;
namespace rns = mqx::rns;

namespace {

constexpr int kPrimeBits = 124;
constexpr int kTwoAdicity = 20;
constexpr size_t kEngineThreads = 1;
/** Full set-ups per run; setup_s is their median. */
constexpr int kSetups = 5;

struct EngineShape
{
    size_t n;
    size_t k;
    /** Products per op: 1 = polymul, more = fmaBatch. */
    size_t pairs;
    /** Distinct operand sets the loop cycles through. */
    size_t sets;
};

/** Everything one run needs, built (and timed) as set-up. */
struct EngineSetup
{
    std::unique_ptr<rns::RnsBasis> basis;
    std::vector<rns::RnsPolynomial> operands;
    std::vector<Products> sets;
    std::vector<rns::RnsPolynomial> expect;
    std::unique_ptr<engine::Engine> scalar_ref;
    std::unique_ptr<engine::Engine> eng;
    std::unique_ptr<rns::RnsPolynomial> out;
    uint64_t warm_failures = 0;
};

void
runOp(EngineSetup& s, const EngineShape& shape, size_t set)
{
    const Products& products = s.sets[set];
    if (shape.pairs == 1)
        s.eng->polymulNegacyclicInto(*products[0].first, *products[0].second,
                                     *s.out);
    else
        s.eng->fmaBatchInto(products, *s.out);
}

std::unique_ptr<EngineSetup>
setUp(const EngineShape& shape, mqx::Backend backend, uint64_t seed)
{
    auto s = std::make_unique<EngineSetup>();
    s->basis = std::make_unique<rns::RnsBasis>(kPrimeBits, kTwoAdicity,
                                               static_cast<int>(shape.k));
    const size_t count = 2 * shape.pairs * shape.sets;
    s->operands.reserve(count);
    for (size_t i = 0; i < count; ++i)
        s->operands.push_back(
            rns::randomPolynomial(*s->basis, shape.n, mixSeed(seed, i)));
    for (size_t set = 0; set < shape.sets; ++set) {
        Products products;
        for (size_t p = 0; p < shape.pairs; ++p) {
            const size_t i = 2 * (set * shape.pairs + p);
            products.emplace_back(&s->operands[i], &s->operands[i + 1]);
        }
        s->sets.push_back(products);
    }

    // Independent reference: Scalar tier, one thread, one polymul per
    // product summed with add (no fused or interleaved batch path).
    s->scalar_ref = std::make_unique<engine::Engine>(
        engine::EngineOptions{mqx::Backend::Scalar, 1, {}, 0});
    s->expect.reserve(shape.sets);
    for (const Products& products : s->sets) {
        rns::RnsPolynomial sum = s->scalar_ref->polymulNegacyclic(
            *products[0].first, *products[0].second);
        for (size_t p = 1; p < products.size(); ++p)
            sum = s->scalar_ref->add(
                sum, s->scalar_ref->polymulNegacyclic(*products[p].first,
                                                      *products[p].second));
        s->expect.push_back(std::move(sum));
    }

    s->eng = std::make_unique<engine::Engine>(
        engine::EngineOptions{backend, kEngineThreads, {}, 0});
    s->out = std::make_unique<rns::RnsPolynomial>(*s->basis, shape.n);
    // Warm-up: every operand set once, so plans, tables and workspaces
    // exist before the first timed op.
    for (size_t set = 0; set < shape.sets; ++set) {
        runOp(*s, shape, set);
        if (!samePolynomial(*s->out, s->expect[set]))
            ++s->warm_failures;
    }
    return s;
}

struct LoopResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t mismatches = 0;
    std::vector<uint64_t> latency_ns;
    /**
     * From one op's completion (when the next op is due in a closed
     * loop) to the next op's start: the caller's own overhead.
     */
    std::vector<uint64_t> gap_ns;
    uint64_t start_ns = 0;
    std::vector<uint64_t> done_ns;
    uint64_t cpu_ns = 0;
};

/**
 * Closed loop for @p seconds. With @p log, each op's Engine call is an
 * `engine.op` span and the layer probe runs after it.
 */
LoopResult
loop(EngineSetup& s, const EngineShape& shape, double seconds,
     uint64_t first_op, SpanLog* log, LayerProbe* probe)
{
    LoopResult r;
    const uint64_t cpu0 = cpuNs();
    r.start_ns = nowNs();
    const uint64_t end = r.start_ns + static_cast<uint64_t>(seconds * 1e9);
    uint64_t prev_end = 0;
    for (uint64_t op = first_op;; ++op) {
        const uint64_t t0 = nowNs();
        if (t0 >= end)
            break;
        if (prev_end)
            r.gap_ns.push_back(t0 - prev_end);
        const size_t set = op % shape.sets;
        ++r.attempted;
        bool ok = true;
        uint64_t t1 = t0;
        try {
            runOp(s, shape, set);
            t1 = nowNs();
        } catch (const std::exception& e) {
            std::fprintf(stderr, "op %llu failed: %s\n",
                         static_cast<unsigned long long>(op), e.what());
            ok = false;
        }
        if (ok && !samePolynomial(*s.out, s.expect[set])) {
            ok = false;
            ++r.mismatches;
        }
        if (ok) {
            r.latency_ns.push_back(t1 - t0);
            r.done_ns.push_back(t1);
        } else {
            ++r.failed;
        }
        if (log) {
            log->add("engine.op", op, SpanLog::kNoParent, t0, t1);
            if (!probe->run(op, *log)) {
                ++r.failed;
                ++r.mismatches;
            }
        }
        prev_end = t1;
    }
    r.cpu_ns = cpuNs() - cpu0;
    return r;
}

int
runEngineWorkload(const EngineShape& shape, const Options& opt,
                  Report& report)
{
    mqx::telemetry::setEnabled(false);
    const mqx::Backend backend = hostBestBackend();
    std::unique_ptr<EngineSetup> s;
    for (int i = 0; i < kSetups; ++i) {
        s.reset();
        const uint64_t t0 = nowNs();
        s = setUp(shape, backend, opt.seed);
        report.setup_s.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        report.attempted += shape.sets;
        report.failed += s->warm_failures;
        report.mismatches += s->warm_failures;
    }

    report.config = {
        {"backend", jsonString(mqx::backendName(backend))},
        {"engine_threads", jsonNumber(static_cast<double>(s->eng->threads()))},
        {"n", jsonNumber(static_cast<double>(shape.n))},
        {"channels", jsonNumber(static_cast<double>(shape.k))},
        {"prime_bits", jsonNumber(kPrimeBits)},
        {"products_per_op", jsonNumber(static_cast<double>(shape.pairs))},
        {"operand_sets", jsonNumber(static_cast<double>(shape.sets))},
        {"loop", jsonString("closed, 1 caller")},
        {"setups", jsonNumber(kSetups)},
    };

    auto absorb = [&](const LoopResult& r) {
        report.attempted += r.attempted;
        report.failed += r.failed;
        report.mismatches += r.mismatches;
    };

    if (!opt.trace) {
        LoopResult r = loop(*s, shape, opt.seconds, 0, nullptr, nullptr);
        absorb(r);
        report.start_ns = r.start_ns;
        report.latency_ns = r.latency_ns;
        report.done_ns = r.done_ns;
        return 0;
    }

    // Traced run: half untraced (the overhead baseline, counters), half
    // with library spans on and every op followed by the layer probe.
    engine::Engine& eng = *s->eng;
    const EngineCounters before = EngineCounters::read(eng);
    LoopResult base = loop(*s, shape, opt.seconds / 2, 0, nullptr, nullptr);
    absorb(base);
    const EngineCounters after = EngineCounters::read(eng);
    const double ops = static_cast<double>(base.attempted);

    const mqx::net::BasisSpec spec{kPrimeBits, kTwoAdicity,
                                   static_cast<uint32_t>(shape.k)};
    LayerProbe probe(*s->basis, shape.n, backend, eng.planCache(),
                     s->sets[0], spec, *s->scalar_ref);
    SpanLog log;
    mqx::telemetry::setEnabled(true);
    LoopResult traced =
        loop(*s, shape, opt.seconds / 2, base.attempted, &log, &probe);
    mqx::telemetry::setEnabled(false);
    absorb(traced);

    const double channel_ns = log.medianNs(
        shape.pairs == 1 ? "rns.polymul_channel" : "rns.fma_channel");
    std::vector<uint64_t> gaps = base.gap_ns;
    std::sort(gaps.begin(), gaps.end());

    report.layer = probe.metrics(log);
    const std::vector<Metric> engine_metrics =
        engineMetrics(eng, shape.k, log.medianNs("engine.op"), channel_ns,
                      before, after, ops);
    report.layer.insert(report.layer.end(), engine_metrics.begin(),
                        engine_metrics.end());
    report.layer.insert(
        report.layer.end(),
        {
            {"net.leased_at_drain",
             static_cast<double>(eng.workspacePool().leasedCount()), "count"},
            {"proc.cpu_ms_per_op",
             static_cast<double>(base.cpu_ns) / 1e6 / ops, "ms"},
            {"loadgen.late_p99_us", quantileSorted(gaps, 0.99) / 1e3, "us"},
            {"trace.overhead_pct",
             (median(traced.latency_ns) / median(base.latency_ns) - 1.0) *
                 100.0,
             "%"},
        });
    finishTrace(log, opt.trace_out, traced.attempted);
    return 0;
}

} // namespace

int
runPolymul32k(const Options& opt, Report& report)
{
    return runEngineWorkload(EngineShape{32768, 4, 1, 2}, opt, report);
}

int
runFma8_4k(const Options& opt, Report& report)
{
    return runEngineWorkload(EngineShape{4096, 4, 8, 4}, opt, report);
}

} // namespace perfbench
