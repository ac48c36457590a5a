/**
 * @file
 * Figure 5 regeneration: NTT runtime per butterfly (ns) on a single
 * core, for every tier the paper plots — GMP, OpenFHE(-like), scalar,
 * AVX2, AVX-512, MQX — across NTT sizes 2^10..2^18, plus the
 * paper-derived reference series for both of the paper's CPUs.
 *
 * The paper's corresponding figures are 5a (Intel Xeon 8352Y) and 5b
 * (AMD EPYC 9654). We measure on the host CPU and compare the *ratios*
 * (who wins, by what factor) against both reference tables.
 */
#include "bench_common.h"

#include <cstring>
#include <fstream>
#include <memory>

#include "blas/blas.h"
#include "blas/blas_backends.h"
#include "core/batch_layout.h"
#include "engine/thread_pool.h"
#include "ntt/negacyclic.h"
#include "ntt/ntt_backends.h"

using namespace mqx;
using namespace mqx::bench;

namespace {

/**
 * Forward + inverse pair timing for one (plan, backend, reduction,
 * fusion) configuration, in ns per op (one op = fwd + inv), with
 * PINNED iteration counts so BENCH_ntt.json is diffable across PRs
 * (the interactive figure mode keeps the paper's 100/50 protocol).
 */
template <class Fwd, class Inv>
double
measureFwdInvNsWith(Fwd fwd, Inv inv, const ntt::NttPlan& plan, size_t n,
                    Reduction red, StageFusion fusion, int total, int kept)
{
    auto input_u = randomResidues(n, plan.modulus().value(), 0x15a9 + n);
    ResidueVector in = ResidueVector::fromU128(input_u);
    ResidueVector mid(n), out(n), scratch(n);
    Measurement m = runProtocol(
        [&] {
            fwd(plan, in.span(), mid.span(), scratch.span(), red, fusion);
            inv(plan, mid.span(), out.span(), scratch.span(), red, fusion);
        },
        total, kept);
    // Min of the kept window: the mean is hostage to scheduler noise on
    // shared hosts, and the trajectory file must be comparable across
    // PRs run on different machines.
    return m.min_ns;
}

double
measureFwdInvNs(Backend be, const ntt::NttPlan& plan, size_t n,
                Reduction red, StageFusion fusion, int total, int kept)
{
    return measureFwdInvNsWith(
        [be](const ntt::NttPlan& p, DConstSpan in, DSpan out, DSpan scr,
             Reduction r, StageFusion f) {
            ntt::forward(p, be, in, out, scr, r, f);
        },
        [be](const ntt::NttPlan& p, DConstSpan in, DSpan out, DSpan scr,
             Reduction r, StageFusion f) {
            ntt::inverse(p, be, in, out, scr, r, f);
        },
        plan, n, red, fusion, total, kept);
}

/**
 * Batch scenario: k channels' fwd+inv through the merged negacyclic
 * batch kernels (packed layout, pack/unpack excluded from the timed
 * region) vs k per-channel merged negacyclic transforms: the choice
 * Engine::fmaBatch and polymulNegacyclicBatch make per channel.
 * Returns {per_channel_ns, batch_ns} for one (backend, k, n).
 */
std::pair<double, double>
measureBatchFwdInvNs(Backend be, const ntt::NegacyclicTables& tables,
                     size_t n, size_t k, int total, int kept)
{
    const size_t il = ntt::batchInterleave(be);
    const BatchLayout layout(n, k, il);
    const U128 q = tables.plan().modulus().value();

    std::vector<ResidueVector> lanes;
    std::vector<DConstSpan> lane_spans;
    for (size_t c = 0; c < k; ++c) {
        lanes.push_back(
            ResidueVector::fromU128(randomResidues(n, q, 0xba7c + 31 * c)));
    }
    for (auto& v : lanes)
        lane_spans.push_back(v.span());

    // Per-channel baseline: k independent merged fwd+inv pairs.
    ResidueVector mid(n), out(n), scratch(n);
    Measurement per = runProtocol(
        [&] {
            for (size_t c = 0; c < k; ++c) {
                ntt::negacyclicForward(tables, be, lane_spans[c], mid.span(),
                                       scratch.span());
                ntt::negacyclicInverse(tables, be, mid.span(), out.span(),
                                       scratch.span());
            }
        },
        total, kept);

    // Interleaved path: pack once outside the timed region (batch
    // residency — the Engine reuses packed operands across stages), then
    // sweep each group of il lanes with one batched fwd+inv.
    ResidueVector packed_in(layout.totalWords()),
        packed_mid(layout.totalWords()), packed_out(layout.totalWords()),
        packed_scratch(layout.totalWords());
    batch::packLanes(layout, lane_spans.data(), k, packed_in.span());
    const size_t group_words = il * n;
    Measurement bat = runProtocol(
        [&] {
            for (size_t g = 0; g < layout.groups(); ++g) {
                const size_t off = g * group_words;
                DSpan in{packed_in.span().hi + off, packed_in.span().lo + off,
                         group_words};
                DSpan gmid{packed_mid.span().hi + off,
                           packed_mid.span().lo + off, group_words};
                DSpan gout{packed_out.span().hi + off,
                           packed_out.span().lo + off, group_words};
                DSpan gscr{packed_scratch.span().hi + off,
                           packed_scratch.span().lo + off, group_words};
                ntt::negacyclicForwardBatch(tables, be, il, in, gmid, gscr);
                ntt::negacyclicInverseBatch(tables, be, il, gmid, gout, gscr);
            }
        },
        total, kept);
    return {per.min_ns, bat.min_ns};
}

/** NegacyclicEngine forward, inverse and polymul ns for one (backend, n). */
struct NegacyclicNs
{
    double forward = 0.0, inverse = 0.0, polymul = 0.0;
    size_t table_bytes = 0; ///< NegacyclicTables::tableBytes()
};

NegacyclicNs
measureNegacyclicNs(Backend be, const ntt::NttPrime& prime, size_t n,
                    int total, int kept)
{
    auto tables = std::make_shared<const ntt::NegacyclicTables>(prime, n);
    ntt::NegacyclicEngine eng(tables, be);
    const U128 q = prime.q;
    ResidueVector f = ResidueVector::fromU128(randomResidues(n, q, 0x2e91));
    ResidueVector g = ResidueVector::fromU128(randomResidues(n, q, 0x2e92));
    ResidueVector fe(n), out(n);
    auto time = [&](auto&& op) { return runProtocol(op, total, kept).min_ns; };
    NegacyclicNs r;
    r.forward = time([&] { eng.forward(f.span(), fe.span()); });
    r.inverse = time([&] { eng.inverse(fe.span(), out.span()); });
    r.polymul = time([&] { eng.polymul(f.span(), g.span(), out.span()); });
    r.table_bytes = tables->tableBytes();
    return r;
}

/** JSON label of a concrete stage-fusion shape. */
const char*
fusionLabel(StageFusion fusion)
{
    return fusion == StageFusion::Radix4 ? "radix4" : "radix2";
}

/** Pinned per-size iteration counts (total/kept) for the JSON mode. */
void
pinnedIters(size_t n, int& total, int& kept)
{
    if (n <= 4096) {
        total = 40;
        kept = 20;
    } else if (n <= 16384) {
        total = 20;
        kept = 10;
    } else {
        total = 12;
        kept = 6;
    }
}

/**
 * --json mode: Radix2 vs Radix4 ns/op per backend
 * x n (Shoup-lazy steady state), plus the Barrett ablation at the small
 * sizes, written as BENCH_ntt.json (or the path given after --json).
 * CI uploads this as an artifact AND the repo root carries a pinned
 * copy so the perf trajectory is diffable across PRs. Each row also
 * reports bytes_swept_per_transform (the analytic DRAM-sweep model from
 * NttPlan) so the traffic reduction is visible, not just inferred.
 */
int
runJsonMode(const char* path)
{
    const auto& prime = ntt::defaultBenchPrime();
    const std::vector<size_t> sizes = {256, 1024, 4096, 16384, 65536};
    std::vector<Backend> backends;
    for (Backend b : {Backend::Scalar, Backend::Portable, Backend::Avx2,
                      Backend::Avx512}) {
        if (backendAvailable(b))
            backends.push_back(b);
    }

    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "cannot open %s for writing\n", path);
        return 1;
    }
    os << "{\n  \"bench\": \"ntt\",\n";
    os << "  \"unit\": \"ns_per_op\",\n";
    os << "  \"op\": \"forward+inverse\",\n";
    os << "  \"modulus_bits\": " << Modulus(prime.q).bits() << ",\n";
    // Host metadata: which machine and build produced these numbers —
    // the trajectory file is diffed across PRs, so "what ran this" must
    // live next to the results. Brand strings come from CPUID.
    os << "  \"cpu\": \"" << jsonEscape(hostCpuFeatures().brand) << "\",\n";
    os << "  \"threads\": " << engine::defaultThreadCount() << ",\n";
    // Which Shoup and Barrett multiplies the AVX-512 rows ran: "ifma"
    // (52-bit limbs, picked by CPUID), "emulated", or "unavailable".
    os << "  \"avx512_shoup_kernel\": \"" << avx512Kernel()
       << "\",\n";
    os << "  \"avx512_blas_kernel\": \"" << avx512Kernel()
       << "\",\n";
    os << "  \"compiled_backends\": [\"Scalar\", \"Portable\"";
#if MQX_BUILD_AVX2
    os << ", \"AVX2\"";
#endif
#if MQX_BUILD_AVX512
    os << ", \"AVX-512\", \"MQX\"";
#endif
    os << "],\n";
    os << "  \"results\": [\n";

    Backend best = bestBackend();
    // Headline: the strongest radix2 -> radix4 speedup at
    // n = 65536 across backends, and which backend achieved it. On
    // hosts whose LLC swallows the 65536 working set the emulated-SIMD
    // tiers stay compute-bound and show little; the scalar tier (cheap
    // native-128-bit butterflies, so bandwidth-bound — the paper's CPU
    // bottleneck) is where the sweep reduction lands in full.
    double best_fused_65536 = 0.0; // max over backends
    Backend best_fused_backend = best;
    double fastest_fused_65536 = 0.0; // on bestBackend()
    bool first = true;
    for (size_t n : sizes) {
        // Plans are backend-independent; build each size's once.
        ntt::NttPlan direct(prime, n);
        int total = 0, kept = 0;
        pinnedIters(n, total, kept);
        for (Backend be : backends) {
            double r2 = measureFwdInvNs(be, direct, n, Reduction::ShoupLazy,
                                        StageFusion::Radix2, total, kept);
            double r4 = measureFwdInvNs(be, direct, n, Reduction::ShoupLazy,
                                        StageFusion::Radix4, total, kept);
            double barrett = 0.0;
            if (n <= 4096) {
                barrett =
                    measureFwdInvNs(be, direct, n, Reduction::Barrett,
                                    StageFusion::Radix2, total / 2 + 1,
                                    kept / 2 + 1);
            }
            double fused_speedup = r4 > 0.0 ? r2 / r4 : 0.0;
            if (n == 65536) {
                if (be == best)
                    fastest_fused_65536 = fused_speedup;
                if (fused_speedup > best_fused_65536) {
                    best_fused_65536 = fused_speedup;
                    best_fused_backend = be;
                }
            }
            if (!first)
                os << ",\n";
            first = false;
            // The shape StageFusion::Auto picks here: CI checks it is
            // within 3% of the faster of radix2_ns / radix4_ns.
            const StageFusion dflt =
                ntt::resolveStageFusion(be, n, StageFusion::Auto);
            os << "    {\"backend\": \"" << backendName(be)
               << "\", \"n\": " << n
               << ", \"radix2_ns\": " << formatFixed(r2, 1)
               << ", \"radix4_ns\": " << formatFixed(r4, 1)
               << ", \"default_fusion\": \"" << fusionLabel(dflt) << "\""
               << ", \"barrett_ns\": " << formatFixed(barrett, 1)
               << ", \"fused_speedup\": " << formatFixed(fused_speedup, 3)
               // Per single transform (the ns fields are per fwd+inv
               // PAIR — two transforms).
               << ", \"bytes_swept_per_transform\": {\"radix2\": "
               << direct.bytesSweptPerTransform(StageFusion::Radix2)
               << ", \"radix4\": "
               << direct.bytesSweptPerTransform(StageFusion::Radix4)
               << "}, \"twiddle_bytes\": " << direct.twiddleBytes() << "}";
            std::fprintf(stderr,
                         "  %-10s n=%6zu radix2=%.0fns radix4=%.0fns "
                         "(%.2fx)\n",
                         backendName(be).c_str(), n, r2, r4, fused_speedup);
        }
    }
    os << "\n  ],\n";

    // The AVX-512 tier's two Shoup multiplies head to head (ROADMAP
    // item 6): the same Shoup-lazy fwd+inv, both fusion shapes, on the
    // emulated 64x64 multiply and on IFMA 52-bit limbs. Empty unless
    // the host runs the IFMA build.
    os << "  \"avx512_ifma_vs_emulated\": [\n";
#if MQX_BUILD_AVX512_IFMA
    first = true;
    for (size_t n : avx512Ifma() ? sizes : std::vector<size_t>{}) {
        ntt::NttPlan direct(prime, n);
        int total = 0, kept = 0;
        pinnedIters(n, total, kept);
        for (StageFusion fusion : {StageFusion::Radix2, StageFusion::Radix4}) {
            // A tier's own entry point over the plan's cyclic twiddles.
            auto entry = [](auto fn, bool fwd) {
                return [fn, fwd](const ntt::NttPlan& p, DConstSpan in,
                                 DSpan out, DSpan scr, Reduction r,
                                 StageFusion f) {
                    fn(p,
                       fwd ? ntt::detail::forwardTwiddles(p)
                           : ntt::detail::inverseTwiddles(p),
                       in, out, scr, {r, f});
                };
            };
            namespace nb = ntt::backends;
            const double emu = measureFwdInvNsWith(
                entry(nb::forwardAvx512, true),
                entry(nb::inverseAvx512, false), direct, n,
                Reduction::ShoupLazy, fusion, total, kept);
            const double ifma = measureFwdInvNsWith(
                entry(nb::forwardAvx512Ifma, true),
                entry(nb::inverseAvx512Ifma, false), direct, n,
                Reduction::ShoupLazy, fusion, total, kept);
            const char* shape = fusionLabel(fusion);
            if (!first)
                os << ",\n";
            first = false;
            os << "    {\"n\": " << n << ", \"fusion\": \"" << shape
               << "\", \"emulated_ns\": " << formatFixed(emu, 1)
               << ", \"ifma_ns\": " << formatFixed(ifma, 1)
               << ", \"ifma_speedup\": "
               << formatFixed(ifma > 0.0 ? emu / ifma : 0.0, 3) << "}";
            std::fprintf(stderr,
                         "  AVX-512 %s n=%6zu emulated=%.0fns ifma=%.0fns\n",
                         shape, n, emu, ifma);
        }
    }
#endif
    os << "\n  ],\n";

    // The AVX-512 tier's two Barrett multiplies head to head: blas::vmul
    // (the pointwise product of every polymul channel) on the emulated
    // 64x64 multiply and on IFMA 52-bit limbs. Empty unless the host
    // runs the IFMA build.
    os << "  \"pointwise_ifma_vs_emulated\": [\n";
#if MQX_BUILD_AVX512_IFMA
    first = true;
    for (size_t n : avx512Ifma() ? std::vector<size_t>{4096, 32768}
                                 : std::vector<size_t>{}) {
        const Modulus m(prime.q);
        ResidueVector a = ResidueVector::fromU128(
            randomResidues(n, m.value(), 0x9a11 + n));
        ResidueVector b = ResidueVector::fromU128(
            randomResidues(n, m.value(), 0x9b22 + n));
        ResidueVector c(n);
        auto time = [&](auto vmul) {
            return runProtocol(
                       [&] {
                           vmul(m, a.span(), b.span(), c.span());
                       },
                       200, 100)
                .min_ns;
        };
        const double emu = time(blas::backends::vmulAvx512);
        const double ifma = time(blas::backends::vmulAvx512Ifma);
        if (!first)
            os << ",\n";
        first = false;
        os << "    {\"op\": \"blas::vmul\", \"n\": " << n
           << ", \"emulated_ns\": " << formatFixed(emu, 1)
           << ", \"ifma_ns\": " << formatFixed(ifma, 1)
           << ", \"ifma_speedup\": "
           << formatFixed(ifma > 0.0 ? emu / ifma : 0.0, 3) << "}";
        std::fprintf(stderr,
                     "  AVX-512 vmul n=%6zu emulated=%.0fns ifma=%.0fns\n",
                     n, emu, ifma);
    }
#endif
    os << "\n  ],\n";

    // Batch scenario: k channels swept by the merged negacyclic batch
    // kernels vs k per-channel merged transforms, at the FHE-core size
    // n = 4096. effective_gbps counts useful lane bytes only (padding
    // sweeps are the batch path's own overhead), and the DRAM floor is
    // the paper's Fig. 5a machine — roofline context for the
    // bytes-swept accounting (a merged transform sweeps the radix-2
    // bytes: the twist and n^-1 ride inside its stages).
    os << "  \"batch\": [\n";
    const size_t batch_n = 4096;
    const ntt::NegacyclicTables batch_tables(prime, batch_n);
    const size_t batch_swept =
        batch_tables.plan().bytesSweptPerTransform(StageFusion::Radix2);
    double batch_speedup_k8 = 0.0;
    Backend batch_best_backend = best;
    first = true;
    for (Backend be : backends) {
        const size_t il = ntt::batchInterleave(be);
        for (size_t k : {size_t{4}, size_t{8}, size_t{16}}) {
            int total = 0, kept = 0;
            pinnedIters(batch_n, total, kept);
            auto [per_ns, bat_ns] = measureBatchFwdInvNs(
                be, batch_tables, batch_n, k, total, kept);
            const double speedup = bat_ns > 0.0 ? per_ns / bat_ns : 0.0;
            // One op = k fwd+inv pairs = 2k transforms' worth of sweeps.
            const double bytes =
                2.0 * static_cast<double>(k) *
                static_cast<double>(batch_swept);
            const double gbps = bat_ns > 0.0 ? bytes / bat_ns : 0.0;
            const double floor_ns = sol::dramFloorNs(
                static_cast<size_t>(bytes), sol::intelXeon8352Y());
            if (k == 8 &&
                (be == Backend::Avx2 || be == Backend::Avx512) &&
                speedup > batch_speedup_k8) {
                batch_speedup_k8 = speedup;
                batch_best_backend = be;
            }
            if (!first)
                os << ",\n";
            first = false;
            os << "    {\"backend\": \"" << backendName(be)
               << "\", \"n\": " << batch_n << ", \"k\": " << k
               << ", \"il\": " << il
               << ", \"per_channel_ns\": " << formatFixed(per_ns, 1)
               << ", \"batch_ns\": " << formatFixed(bat_ns, 1)
               << ", \"batch_speedup\": " << formatFixed(speedup, 3)
               << ", \"effective_gbps\": " << formatFixed(gbps, 2)
               << ", \"bytes_swept\": "
               << static_cast<size_t>(bytes)
               << ", \"dram_floor_ns_8352y\": " << formatFixed(floor_ns, 1)
               << "}";
            std::fprintf(stderr,
                         "  batch %-10s n=%zu k=%2zu il=%zu per=%.0fns "
                         "batch=%.0fns (%.2fx, %.1f GB/s)\n",
                         backendName(be).c_str(), batch_n, k, il, per_ns,
                         bat_ns, speedup, gbps);
        }
    }
    os << "\n  ],\n";
    // The merged negacyclic transform (psi and n^-1 folded into the
    // Pease stages) through NegacyclicEngine, against the cyclic
    // fwd+inv in its default shape: polymul_vs_fwdinv is the ROADMAP's
    // "channel polymul vs ~1.5 kernel transforms" row (a polymul is two
    // forwards, one point-wise product and one inverse).
    os << "  \"negacyclic\": [\n";
    first = true;
    for (size_t n : {size_t{4096}, size_t{32768}}) {
        ntt::NttPlan plan(prime, n);
        int total = 0, kept = 0;
        pinnedIters(n, total, kept);
        for (Backend be : backends) {
            const NegacyclicNs neg =
                measureNegacyclicNs(be, prime, n, total, kept);
            const double fwdinv = measureFwdInvNs(
                be, plan, n, Reduction::ShoupLazy,
                ntt::resolveStageFusion(be, n, StageFusion::Auto), total,
                kept);
            const double ratio = fwdinv > 0.0 ? neg.polymul / fwdinv : 0.0;
            if (!first)
                os << ",\n";
            first = false;
            os << "    {\"backend\": \"" << backendName(be)
               << "\", \"n\": " << n
               << ", \"forward_ns\": " << formatFixed(neg.forward, 1)
               << ", \"inverse_ns\": " << formatFixed(neg.inverse, 1)
               << ", \"polymul_ns\": " << formatFixed(neg.polymul, 1)
               << ", \"cyclic_fwdinv_ns\": " << formatFixed(fwdinv, 1)
               << ", \"polymul_vs_fwdinv\": " << formatFixed(ratio, 3)
               << ", \"table_bytes\": " << neg.table_bytes << "}";
            std::fprintf(stderr,
                         "  negacyclic %-10s n=%6zu fwd=%.0fns inv=%.0fns "
                         "polymul=%.0fns (%.2fx cyclic fwd+inv)\n",
                         backendName(be).c_str(), n, neg.forward,
                         neg.inverse, neg.polymul, ratio);
        }
    }
    os << "\n  ],\n";
    os << "  \"batch_speedup_k8_n4096\": " << formatFixed(batch_speedup_k8, 3)
       << ",\n";
    os << "  \"batch_backend\": \"" << backendName(batch_best_backend)
       << "\",\n";
    os << "  \"iters\": \"pinned (40/20 <=4096, 20/10 <=16384, 12/6 above), "
          "min of kept window\",\n";
    os << "  \"fastest_backend\": \"" << backendName(best) << "\",\n";
    os << "  \"fastest_backend_speedup_n65536\": "
       << formatFixed(fastest_fused_65536, 3) << ",\n";
    os << "  \"best_fusion_backend\": \"" << backendName(best_fused_backend)
       << "\",\n";
    os << "  \"best_fwdinv_speedup_n65536\": "
       << formatFixed(best_fused_65536, 3) << "\n}\n";
    std::printf("wrote %s (best fused speedup at n=65536: %.2fx on "
                "%s; fastest backend %s at %.2fx)\n",
                path, best_fused_65536,
                backendName(best_fused_backend).c_str(),
                backendName(best).c_str(), fastest_fused_65536);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            const char* path =
                i + 1 < argc ? argv[i + 1] : "BENCH_ntt.json";
            return runJsonMode(path);
        }
    }
    printHostHeader("Figure 5: NTT runtime per butterfly (single core)");
    const auto& prime = ntt::defaultBenchPrime();
    std::printf("modulus  : %s (%d bits, 2-adicity %d)\n\n",
                toHexString(prime.q).c_str(), prime.bits, prime.two_adicity);

    const auto sizes = sol::paperNttSizes();
    auto tiers = availableTiers();

    TextTable table("Measured ns/butterfly (host CPU)");
    std::vector<std::string> header = {"n"};
    for (Tier t : tiers)
        header.push_back(tierName(t));
    table.setHeader(header);

    std::vector<std::vector<double>> measured(
        tiers.size(), std::vector<double>(sizes.size(), 0.0));
    for (size_t si = 0; si < sizes.size(); ++si) {
        size_t n = sizes[si];
        std::vector<std::string> row = {std::to_string(n)};
        for (size_t ti = 0; ti < tiers.size(); ++ti) {
            double ns = measureNtt(tiers[ti], prime, n);
            measured[ti][si] = ns;
            row.push_back(formatFixed(ns, 1));
        }
        table.addRow(row);
        std::fprintf(stderr, "  measured n=%zu\n", n);
    }
    table.print();
    std::printf("\n");

    // Paper reference series (ratio-derived; see sol/reference_data.cc).
    for (const char* cpu : {"EPYC 9654 (Fig. 5b)", "Xeon 8352Y (Fig. 5a)"}) {
        bool epyc = cpu[0] == 'E';
        TextTable ref(std::string("Paper-derived reference ns/butterfly, ") +
                      cpu);
        std::vector<std::string> h = {"n"};
        for (const auto& tier : sol::paperTiers())
            h.push_back(tier);
        ref.setHeader(h);
        for (size_t n : sizes) {
            std::vector<std::string> row = {std::to_string(n)};
            for (const auto& tier : sol::paperTiers()) {
                const auto& series = epyc ? sol::paperEpycSeries(tier)
                                          : sol::paperXeonSeries(tier);
                row.push_back(formatFixed(series.at(n), 1));
            }
            ref.addRow(row);
        }
        ref.print();
        std::printf("\n");
    }

    // Headline ratios: paper claim vs measured (geomean across sizes).
    auto tierIndex = [&](Tier t) -> int {
        for (size_t i = 0; i < tiers.size(); ++i) {
            if (tiers[i] == t)
                return static_cast<int>(i);
        }
        return -1;
    };
    auto ratioOf = [&](Tier slow, Tier fast) -> double {
        int si = tierIndex(slow), fi = tierIndex(fast);
        if (si < 0 || fi < 0)
            return 0.0;
        std::vector<double> r;
        for (size_t k = 0; k < sizes.size(); ++k)
            r.push_back(measured[static_cast<size_t>(si)][k] /
                        measured[static_cast<size_t>(fi)][k]);
        return geomean(r);
    };

    TextTable claims("Headline speedups: paper claim vs measured (host)");
    claims.setHeader({"claim", "paper", "measured"});
    claims.addRow({"Scalar vs OpenFHE(-like)", "11x (AMD) / 13.5x (Intel)",
                   formatSpeedup(ratioOf(Tier::OpenFheLike, Tier::Scalar))});
    claims.addRow({"AVX2 vs Scalar", "1.2x (AMD) / ~1x (Intel)",
                   formatSpeedup(ratioOf(Tier::Scalar, Tier::Avx2))});
    claims.addRow({"AVX-512 vs AVX2", "1.7x (AMD) / 2.4x vs scalar (Intel)",
                   formatSpeedup(ratioOf(Tier::Avx2, Tier::Avx512))});
    claims.addRow({"MQX vs AVX-512", "3.7x (AMD) / 2.1x (Intel)",
                   formatSpeedup(ratioOf(Tier::Avx512, Tier::MqxPisa))});
    claims.addRow({"AVX-512 vs GMP", "53x (Intel)",
                   formatSpeedup(ratioOf(Tier::Gmp, Tier::Avx512))});
    claims.addRow({"AVX-512 vs BigUInt (GMP substitute)", "(same band)",
                   formatSpeedup(ratioOf(Tier::BigInt, Tier::Avx512))});
    claims.addRow({"MQX vs OpenFHE(-like)", "86.5x (AMD) / 66.9x (Intel)",
                   formatSpeedup(ratioOf(Tier::OpenFheLike, Tier::MqxPisa))});
    claims.print();
    return 0;
}
