/**
 * @file
 * Engine scaling harness: negacyclic RNS polymul throughput vs channel
 * count and thread count, plus the plan-cache effect.
 *
 * The paper closes the per-core gap (Figs. 1/5); this measures the
 * other axis — RNS channels fanned out across cores by engine::Engine.
 * Channels are independent, so ideal scaling is min(channels, threads)
 * until memory bandwidth intervenes. Speedups are relative to T=1, the
 * serial run: the pool executes every channel inline on the caller.
 */
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/layout_metrics.h"
#include "engine/engine.h"
#include "rns/rns.h"
#include "telemetry/telemetry.h"

using namespace mqx;
using namespace mqx::bench;

namespace {

/** Best-of-@p reps wall time of @p fn, in ns. */
template <typename Fn>
uint64_t
bestOf(int reps, Fn&& fn)
{
    uint64_t best = ~0ull;
    for (int r = 0; r < reps; ++r) {
        uint64_t t0 = nowNs();
        fn();
        best = std::min(best, nowNs() - t0);
    }
    return best;
}

/**
 * The overhead cell of a guard table, and its verdict: EXCEEDED only
 * when the lower quartile of the paired overheads is above the bound,
 * that is when at least three pairs in four read over it, so a few
 * noisy pairs cannot fail it.
 */
std::string
overheadCell(const Quartiles& q)
{
    return formatFixed(q.median, 2) + "% [" + formatFixed(q.q1, 2) + ", " +
           formatFixed(q.q3, 2) + "]";
}

const char*
guardVerdict(const Quartiles& q, double bound_pct)
{
    return q.q1 > bound_pct ? " -- EXCEEDED" : " -- OK";
}

} // namespace

int
main(int argc, char** argv)
{
    // --robust-json <path>: also emit the verification-overhead scenario
    // as JSON (committed as BENCH_robust.json). Argless runs (the CI
    // verify legs) just print the tables.
    const char* robust_json = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--robust-json") == 0 && i + 1 < argc) {
            robust_json = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_engine [--robust-json <path>]\n");
            return 2;
        }
    }

    printHostHeader("Engine scaling: RNS channel fan-out across threads");

    Backend be = bestBackend();
    const size_t hw = engine::defaultThreadCount();
    const size_t n = 2048;
    std::printf("backend  : %s\n", backendName(be).c_str());
    std::printf("threads  : up to %zu (override with MQX_THREADS)\n", hw);
    std::printf("polymul  : negacyclic, n = %zu, 124-bit primes\n\n", n);

    std::vector<size_t> thread_counts = {1, 2, 4, 8, hw};
    std::sort(thread_counts.begin(), thread_counts.end());
    thread_counts.erase(
        std::unique(thread_counts.begin(), thread_counts.end()),
        thread_counts.end());
    while (thread_counts.size() > 1 && thread_counts.back() > hw)
        thread_counts.pop_back();

    const int kReps = 3;

    TextTable scaling("polymulNegacyclic ms (speedup vs T=1)");
    std::vector<std::string> header = {"channels"};
    for (size_t t : thread_counts)
        header.push_back("T=" + std::to_string(t));
    scaling.setHeader(header);

    for (size_t channels : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
        rns::RnsBasis basis(124, 20, static_cast<int>(channels));
        auto a = rns::randomPolynomial(basis, n, 0xaa + channels);
        auto b = rns::randomPolynomial(basis, n, 0xbb + channels);

        rns::RnsPolynomial sink(basis, n);
        std::vector<std::string> row = {std::to_string(channels)};
        uint64_t serial_ns = 0; // thread_counts is sorted: T=1 runs first
        for (size_t t : thread_counts) {
            engine::Engine eng(be, t);
            eng.polymulNegacyclic(a, b); // warm the plan cache
            uint64_t ns =
                bestOf(kReps, [&] { sink = eng.polymulNegacyclic(a, b); });
            if (t == 1)
                serial_ns = ns;
            row.push_back(formatFixed(ns / 1e6, 2) + " (" +
                          formatSpeedup(static_cast<double>(serial_ns) /
                                        static_cast<double>(ns)) +
                          ")");
        }
        scaling.addRow(row);
        std::fprintf(stderr, "  measured %zu channels\n", channels);
    }
    scaling.print();
    std::printf("\n");

    // Batch dispatch: many independent products as one flat task set.
    {
        const size_t channels = 4, batch = 8;
        rns::RnsBasis basis(124, 20, channels);
        std::vector<rns::RnsPolynomial> as, bs;
        for (size_t i = 0; i < batch; ++i) {
            as.push_back(rns::randomPolynomial(basis, n, 0x100 + i));
            bs.push_back(rns::randomPolynomial(basis, n, 0x200 + i));
        }
        std::vector<std::pair<const rns::RnsPolynomial*,
                              const rns::RnsPolynomial*>>
            products;
        for (size_t i = 0; i < batch; ++i)
            products.push_back({&as[i], &bs[i]});

        engine::Engine serial(be, 1);
        uint64_t serial_ns = bestOf(kReps, [&] {
            for (size_t i = 0; i < batch; ++i)
                (void)serial.polymulNegacyclic(as[i], bs[i]);
        });
        engine::Engine eng(be, hw);
        (void)eng.polymulNegacyclicBatch(products); // warm
        uint64_t batch_ns =
            bestOf(kReps, [&] { (void)eng.polymulNegacyclicBatch(products); });

        TextTable bt("batched dispatch: " + std::to_string(batch) +
                     " independent polymuls x " + std::to_string(channels) +
                     " channels");
        bt.setHeader({"path", "ms", "speedup"});
        bt.addRow({"polymul loop (T=1)", formatFixed(serial_ns / 1e6, 2),
                   "1.0x"});
        bt.addRow({"engine batch (T=" + std::to_string(hw) + ")",
                   formatFixed(batch_ns / 1e6, 2),
                   formatSpeedup(static_cast<double>(serial_ns) /
                                 static_cast<double>(batch_ns))});
        bt.print();
        std::printf("\n");
    }

    // Eval-form fused dot product: sum_i a_i * b_i mod (x^n + 1, Q).
    // The naive path pays a full forward+inverse pipeline per product;
    // fmaBatch accumulates in the transform domain and pays ONE inverse
    // per channel (2k forward + 1 inverse vs 2k + k); operands already
    // resident in Eval form (key-switching-style workloads) skip the
    // forwards too. All three are bit-identical by construction.
    {
        const size_t channels = 4, k = 8, dot_n = 4096;
        rns::RnsBasis basis(124, 20, channels);
        std::vector<rns::RnsPolynomial> as, bs;
        for (size_t i = 0; i < k; ++i) {
            as.push_back(rns::randomPolynomial(basis, dot_n, 0x300 + i));
            bs.push_back(rns::randomPolynomial(basis, dot_n, 0x400 + i));
        }
        std::vector<std::pair<const rns::RnsPolynomial*,
                              const rns::RnsPolynomial*>>
            products;
        for (size_t i = 0; i < k; ++i)
            products.push_back({&as[i], &bs[i]});

        engine::Engine eng(be, hw);
        // Naive: k independent polymuls, then k - 1 adds.
        auto naiveDot = [&] {
            rns::RnsPolynomial acc = eng.polymulNegacyclic(as[0], bs[0]);
            for (size_t i = 1; i < k; ++i)
                acc = eng.add(acc, eng.polymulNegacyclic(as[i], bs[i]));
            return acc;
        };
        auto naive = naiveDot(); // warm plans + result for the bit check
        uint64_t naive_ns = bestOf(kReps, [&] { (void)naiveDot(); });

        auto fused = eng.fmaBatch(products);
        uint64_t fused_ns = bestOf(kReps, [&] { (void)eng.fmaBatch(products); });

        // Eval-resident operands: convert once outside the loop (the
        // CRYPTONITE-style "stay in the transform domain" residency),
        // then the dot product is k point-wise passes + one inverse.
        std::vector<rns::RnsPolynomial> eas, ebs;
        for (size_t i = 0; i < k; ++i) {
            eas.push_back(eng.toEval(as[i]));
            ebs.push_back(eng.toEval(bs[i]));
        }
        std::vector<std::pair<const rns::RnsPolynomial*,
                              const rns::RnsPolynomial*>>
            eval_products;
        for (size_t i = 0; i < k; ++i)
            eval_products.push_back({&eas[i], &ebs[i]});
        auto resident = eng.fmaBatch(eval_products);
        uint64_t resident_ns =
            bestOf(kReps, [&] { (void)eng.fmaBatch(eval_products); });

        bool identical = true;
        for (size_t c = 0; c < channels; ++c) {
            identical = identical && fused.channel(c) == naive.channel(c) &&
                        resident.channel(c) == naive.channel(c);
        }

        TextTable dot("eval-form dot product: sum of " + std::to_string(k) +
                      " products, n = " + std::to_string(dot_n) + ", " +
                      std::to_string(channels) + " channels (T=" +
                      std::to_string(hw) + ")");
        dot.setHeader({"path", "ms", "speedup", "inverse NTTs"});
        dot.addRow({"naive: k polymuls + adds", formatFixed(naive_ns / 1e6, 2),
                    "1.0x", std::to_string(k * channels)});
        dot.addRow({"fmaBatch (coeff operands)",
                    formatFixed(fused_ns / 1e6, 2),
                    formatSpeedup(static_cast<double>(naive_ns) /
                                  static_cast<double>(fused_ns)),
                    std::to_string(channels)});
        dot.addRow({"fmaBatch (eval-resident)",
                    formatFixed(resident_ns / 1e6, 2),
                    formatSpeedup(static_cast<double>(naive_ns) /
                                  static_cast<double>(resident_ns)),
                    std::to_string(channels)});
        dot.print();
        std::printf("bit-identical to naive sum: %s\n\n",
                    identical ? "yes" : "NO (BUG)");
    }

    // Layout scenario: what the split hi/lo refactor eliminated. The
    // retained U128 adapters replay the pre-refactor pipeline — every
    // channel repacked AoS->SoA on the way into the kernels and back out
    // — while the native path hands channel spans straight down.
    // layout::metrics() counts both costs per call.
    {
        const size_t channels = 8, lay_n = 4096;
        rns::RnsBasis basis(124, 20, static_cast<int>(channels));
        auto a = rns::randomPolynomial(basis, lay_n, 0x500);
        auto b = rns::randomPolynomial(basis, lay_n, 0x600);
        engine::Engine serial(be, 1);
        rns::RnsPolynomial sink(basis, lay_n);

        // Per-channel transform engines for the adapter replay, built
        // outside the timed region (plan setup is not what's measured).
        std::vector<ntt::NegacyclicEngine> adapters;
        for (size_t i = 0; i < channels; ++i)
            adapters.emplace_back(basis.prime(i), lay_n, be);
        auto adapterPolymul = [&] {
            for (size_t i = 0; i < channels; ++i) {
                sink.setChannelFromU128(
                    i, adapters[i].polymulNegacyclic(a.channelToU128(i),
                                                     b.channelToU128(i)));
            }
        };

        adapterPolymul(); // warm
        auto m0 = layout::metrics();
        uint64_t adapter_ns = bestOf(kReps, adapterPolymul);
        auto adapter_delta = layout::delta(m0, layout::metrics());

        serial.polymulNegacyclicInto(a, b, sink); // warm tables + pool
        m0 = layout::metrics();
        uint64_t native_ns =
            bestOf(kReps, [&] { serial.polymulNegacyclicInto(a, b, sink); });
        auto native_delta = layout::delta(m0, layout::metrics());

        auto perCall = [&](uint64_t total) {
            return std::to_string(total / static_cast<uint64_t>(kReps));
        };
        TextTable lt("split hi/lo layout: polymul, n = " +
                     std::to_string(lay_n) + ", " + std::to_string(channels) +
                     " channels (serial engine)");
        lt.setHeader({"path", "ms", "speedup", "conv/call", "allocs/call"});
        lt.addRow({"U128 adapter round trip", formatFixed(adapter_ns / 1e6, 2),
                   "1.0x", perCall(adapter_delta.conversions()),
                   perCall(adapter_delta.aligned_allocs)});
        lt.addRow({"native SoA spans", formatFixed(native_ns / 1e6, 2),
                   formatSpeedup(static_cast<double>(adapter_ns) /
                                 static_cast<double>(native_ns)),
                   perCall(native_delta.conversions()),
                   perCall(native_delta.aligned_allocs)});
        lt.print();
        std::printf("the native rows must read 0/0: the steady-state kernel "
                    "path performs no AoS<->SoA\nconversions and no aligned "
                    "heap allocations (tests/test_layout.cc asserts it).\n\n");
    }

    // Telemetry overhead guard: the same warmed polymul with span
    // recording on vs runtime-disabled, in one binary. The contract
    // (README "Telemetry") is < 2% on kernel-sized ops — spans sit at
    // phase granularity, so the two clock reads amortize over
    // microseconds of transform work. The compile-time-OFF build is
    // compared in CI; this scenario bounds the runtime layer.
    {
        const size_t channels = 4, tel_n = 4096;
        rns::RnsBasis basis(124, 20, static_cast<int>(channels));
        auto a = rns::randomPolynomial(basis, tel_n, 0x700);
        auto b = rns::randomPolynomial(basis, tel_n, 0x800);
        engine::Engine eng(be, 1); // serial: no pool noise in the delta
        rns::RnsPolynomial sink(basis, tel_n);
        eng.polymulNegacyclicInto(a, b, sink); // warm plans + workspaces

        // Each side of a pair is a block of kTelCalls polymuls.
        const int kTelPairs = 20, kTelCalls = 4;
        const bool was_enabled = telemetry::enabled();
        auto block = [&](bool record) {
            return [&, record] {
                telemetry::setEnabled(record && telemetry::compiledIn());
                for (int i = 0; i < kTelCalls; ++i)
                    eng.polymulNegacyclicInto(a, b, sink);
            };
        };
        const Paired tel = pairedOverhead(kTelPairs, block(false), block(true));
        telemetry::setEnabled(was_enabled);

        TextTable tt("telemetry overhead: warmed polymul, n = " +
                     std::to_string(tel_n) + ", " + std::to_string(channels) +
                     " channels (serial engine), " +
                     std::to_string(kTelPairs) + " alternated pairs");
        tt.setHeader({"recording", "ms (median)", "overhead [quartiles]"});
        tt.addRow({"disabled (runtime)",
                   formatFixed(tel.base_ns / 1e6 / kTelCalls, 3), "-"});
        tt.addRow({telemetry::compiledIn() ? "enabled" : "compiled out",
                   formatFixed(tel.variant_ns / 1e6 / kTelCalls, 3),
                   overheadCell(tel.overhead_pct)});
        tt.print();
        std::printf("guard: span overhead must stay < 2%% on kernel-sized "
                    "ops (fails when the lower quartile exceeds it)%s\n\n",
                    guardVerdict(tel.overhead_pct, 2.0));
    }

    // Verification overhead (ISSUE 9): the same warmed polymul under
    // VerifyPolicy Off / Sample(1-in-8) / Always. The Freivalds check is
    // one pointwise vmul against a cached powers-of-r table plus a
    // horizontal mod-sum per operand — O(n) against the O(n log n)
    // pipeline it guards — so the sampled policy must stay under the 2%
    // contract (README "Robustness & fault injection"). Sampled cost
    // lands on every 8th call, so each side of a pair is a 16-call block
    // (two sampled calls) and the table reports per-call averages; each
    // policy is timed against Off in alternated pairs.
    {
        const size_t channels = 8, ver_n = 4096;
        const uint32_t period = 8;
        rns::RnsBasis basis(124, 20, static_cast<int>(channels));
        auto a = rns::randomPolynomial(basis, ver_n, 0x900);
        auto b = rns::randomPolynomial(basis, ver_n, 0xa00);
        const int kCalls = 16, kVerPairs = 12;

        struct Policy
        {
            Policy(engine::EngineOptions opts, const rns::RnsBasis& basis,
                   size_t n)
                : eng(std::move(opts)), sink(basis, n)
            {
            }
            engine::Engine eng;
            rns::RnsPolynomial sink;
        };
        auto makePolicy = [&](robust::VerifyPolicy policy) {
            engine::EngineOptions opts;
            opts.backend = be;
            opts.threads = 1; // serial: no pool noise in the delta
            opts.verify.policy = policy;
            opts.verify.sample_period = period;
            auto p = std::make_unique<Policy>(opts, basis, ver_n);
            p->eng.polymulNegacyclicInto(a, b, p->sink); // warm plans + tables
            return p;
        };
        const auto off = makePolicy(robust::VerifyPolicy::Off);
        const auto sample = makePolicy(robust::VerifyPolicy::Sample);
        const auto always = makePolicy(robust::VerifyPolicy::Always);
        auto block = [&](Policy& p) {
            return [&] {
                for (int i = 0; i < kCalls; ++i)
                    p.eng.polymulNegacyclicInto(a, b, p.sink);
            };
        };
        const Paired sampled =
            pairedOverhead(kVerPairs, block(*off), block(*sample));
        const Paired full =
            pairedOverhead(kVerPairs, block(*off), block(*always));
        const uint64_t off_ns = sampled.base_ns / kCalls;
        const uint64_t sample_ns = sampled.variant_ns / kCalls;
        const uint64_t always_ns = full.variant_ns / kCalls;

        TextTable vt("Freivalds verification overhead: warmed polymul, n = " +
                     std::to_string(ver_n) + ", " + std::to_string(channels) +
                     " channels (serial engine), " +
                     std::to_string(kVerPairs) +
                     " alternated pairs per policy");
        vt.setHeader({"policy", "us/call (median)", "overhead [quartiles]"});
        vt.addRow({"off", formatFixed(off_ns / 1e3, 1), "-"});
        vt.addRow({"sample 1-in-" + std::to_string(period),
                   formatFixed(sample_ns / 1e3, 1),
                   overheadCell(sampled.overhead_pct)});
        vt.addRow({"always", formatFixed(always_ns / 1e3, 1),
                   overheadCell(full.overhead_pct)});
        vt.print();
        std::printf("guard: sampled-policy overhead must stay < 2%% (fails "
                    "when the lower quartile exceeds it)%s\n\n",
                    guardVerdict(sampled.overhead_pct, 2.0));

        if (robust_json) {
            FILE* out = std::fopen(robust_json, "w");
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n", robust_json);
                return 1;
            }
            std::fprintf(
                out,
                "{\n"
                "  \"scenario\": \"polymul_verification_overhead\",\n"
                "  \"backend\": \"%s\",\n"
                "  \"n\": %zu,\n"
                "  \"channels\": %zu,\n"
                "  \"sample_period\": %u,\n"
                "  \"calls_per_rep\": %d,\n"
                "  \"pairs_per_policy\": %d,\n"
                "  \"off_ns_per_call\": %llu,\n"
                "  \"sample_ns_per_call\": %llu,\n"
                "  \"always_ns_per_call\": %llu,\n"
                "  \"sample_overhead_pct\": %.3f,\n"
                "  \"sample_overhead_q1_pct\": %.3f,\n"
                "  \"sample_overhead_q3_pct\": %.3f,\n"
                "  \"always_overhead_pct\": %.3f,\n"
                "  \"always_overhead_q1_pct\": %.3f,\n"
                "  \"always_overhead_q3_pct\": %.3f,\n"
                "  \"sample_within_2pct\": %s\n"
                "}\n",
                backendName(be).c_str(), ver_n, channels, period, kCalls,
                kVerPairs, static_cast<unsigned long long>(off_ns),
                static_cast<unsigned long long>(sample_ns),
                static_cast<unsigned long long>(always_ns),
                sampled.overhead_pct.median, sampled.overhead_pct.q1,
                sampled.overhead_pct.q3, full.overhead_pct.median,
                full.overhead_pct.q1, full.overhead_pct.q3,
                sampled.overhead_pct.q1 > 2.0 ? "false" : "true");
            std::fclose(out);
            std::fprintf(stderr, "wrote %s\n", robust_json);
        }
    }

    // Plan-cache effect: per-channel table derivation (one
    // NegacyclicTables entry, its cyclic plan included, per channel;
    // from PlanCache::stats()), the cold first call that pays it, and
    // the warm steady state.
    {
        rns::RnsBasis basis(124, 20, 4);
        TextTable pc("plan cache (serial engine, 4 channels)");
        pc.setHeader({"n", "derive ms/channel", "first call ms",
                      "repeat ms", "note"});
        for (size_t pn : {size_t{4096}, size_t{32768}}) {
            auto a = rns::randomPolynomial(basis, pn, 1);
            auto b = rns::randomPolynomial(basis, pn, 2);
            engine::Engine eng(be, 1);
            uint64_t t0 = nowNs();
            (void)eng.polymulNegacyclic(a, b);
            uint64_t cold = nowNs() - t0;
            const engine::PlanCache::Stats st = eng.planCache().stats();
            const size_t channels = eng.planCache().size();
            uint64_t warm = bestOf(
                kReps, [&] { (void)eng.polymulNegacyclic(a, b); });
            pc.addRow({std::to_string(pn),
                       formatFixed(st.build_ns / 1e6 / channels, 2),
                       formatFixed(cold / 1e6, 2), formatFixed(warm / 1e6, 2),
                       std::to_string(st.builds) + " builds, " +
                           std::to_string(st.misses) + " misses"});
        }
        pc.print();
    }
    return 0;
}
