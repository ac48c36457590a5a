/**
 * @file
 * Section 5.5 regeneration: schoolbook (Eq. 8) vs Karatsuba (Eq. 9)
 * double-word multiplication in the NTT. The paper finds schoolbook
 * wins on CPUs in almost all variants (average 1.1x where it wins) —
 * the opposite of the GPU result it cites (Karatsuba 2.1x faster on an
 * RTX 4090), because trading one multiply for several additions only
 * pays off when multiplies are disproportionately expensive.
 *
 * Each row times the forward NTT under Reduction::Barrett against
 * Reduction::BarrettKaratsuba: the paper's Barrett butterflies (three
 * full products each), so the Shoup-lazy default (one full product)
 * does not dilute the ablation. The two run in alternated pairs; a row
 * prints the median per-pair Karatsuba/schoolbook ratio, its quartiles
 * and the pairs Karatsuba won. Where Backend::Avx512 multiplies on IFMA
 * limbs there is one limb product and no Karatsuba split, so its rows
 * time Barrett once and report no ratio.
 */
#include <algorithm>
#include <cmath>
#include <cstring>

#include "bench_common.h"

using namespace mqx;
using namespace mqx::bench;

namespace {

/** Alternated pairs per row. */
constexpr int kPairs = 9;

/** Wall time one side of a pair spends, at least. */
constexpr uint64_t kBlockNs = 4'000'000;

/** One side of a pair: @p iters forward NTTs under @p red. */
struct ForwardBlock
{
    const ntt::NttPlan& plan;
    Backend be;
    Reduction red;
    DConstSpan in;
    DSpan out, scratch;
    int iters;

    void
    operator()() const
    {
        for (int i = 0; i < iters; ++i)
            ntt::forward(plan, be, in, out, scratch, red);
    }
};

/** ns per butterfly of one block of @p iters n-point forwards. */
double
blockNsPerButterfly(uint64_t block_ns, int iters, size_t n)
{
    const double butterflies = n / 2.0 * std::log2(static_cast<double>(n));
    return static_cast<double>(block_ns) / iters / butterflies;
}

} // namespace

int
main()
{
    printHostHeader(
        "Section 5.5: schoolbook vs Karatsuba multiplication in the NTT");
    const auto& prime = ntt::defaultBenchPrime();
    const size_t sizes[] = {1u << 10, 1u << 12, 1u << 14};

    TextTable table("ns/butterfly by multiplication algorithm (Barrett "
                    "butterflies, " +
                    std::to_string(kPairs) + " alternated pairs per row)");
    table.setHeader({"backend", "n", "schoolbook", "Karatsuba",
                     "karat/school [q1, q3]", "karat wins"});

    std::vector<Backend> backends = {Backend::Scalar};
    if (backendAvailable(Backend::Avx2))
        backends.push_back(Backend::Avx2);
    if (backendAvailable(Backend::Avx512))
        backends.push_back(Backend::Avx512);
    if (backendAvailable(Backend::MqxPisa))
        backends.push_back(Backend::MqxPisa);

    std::vector<double> ratios;
    for (Backend be : backends) {
        const bool one_limb_product =
            be == Backend::Avx512 && std::strcmp(avx512Kernel(), "ifma") == 0;
        for (size_t n : sizes) {
            ntt::NttPlan plan(prime, n);
            ResidueVector in =
                ResidueVector::fromU128(randomResidues(n, prime.q, 0x5e5));
            ResidueVector out(n), scratch(n);
            ForwardBlock school{plan,      be,         Reduction::Barrett,
                                in.span(), out.span(), scratch.span(),
                                1};
            if (one_limb_product) {
                const Measurement m = runNttProtocol(school);
                table.addRow({backendName(be), std::to_string(n),
                              formatFixed(nsPerButterfly(m, n), 1),
                              "= schoolbook", "one limb product (IFMA)",
                              "-"});
                continue;
            }
            // Warm the caches, then size the blocks from one timed call.
            school();
            const uint64_t t0 = nowNs();
            school();
            const uint64_t one = std::max<uint64_t>(1, nowNs() - t0);
            school.iters =
                static_cast<int>(std::max<uint64_t>(1, kBlockNs / one));
            ForwardBlock karat = school;
            karat.red = Reduction::BarrettKaratsuba;
            const Paired p = pairedOverhead(kPairs, school, karat);
            auto ratio = [](double pct) { return 1.0 + pct / 100.0; };
            table.addRow(
                {backendName(be), std::to_string(n),
                 formatFixed(blockNsPerButterfly(p.base_ns, school.iters, n),
                             1),
                 formatFixed(blockNsPerButterfly(p.variant_ns, school.iters, n),
                             1),
                 formatFixed(ratio(p.overhead_pct.median), 2) + "x [" +
                     formatFixed(ratio(p.overhead_pct.q1), 2) + ", " +
                     formatFixed(ratio(p.overhead_pct.q3), 2) + "]",
                 std::to_string(p.variant_wins) + "/" +
                     std::to_string(kPairs)});
            ratios.push_back(ratio(p.overhead_pct.median));
        }
        std::fprintf(stderr, "  %s done\n", backendName(be).c_str());
    }
    table.print();
    std::printf("\nGeomean Karatsuba/schoolbook ratio (median of pairs, "
                "rows with two products): %s "
                "[paper: schoolbook ~1.1x faster on CPUs; Karatsuba 2.1x "
                "faster on the RTX 4090 GPU]\n",
                (formatFixed(geomean(ratios), 2) + "x").c_str());
    return 0;
}
