/**
 * @file
 * Machine-code analysis walkthrough (Fig. 3 / Listing 4): print the
 * exact instruction traces of the shipped modular-addition kernels and
 * their port-pressure analysis on the simplified Sunny Cove model —
 * the at-a-glance explanation of *why* MQX helps: 21 instructions
 * collapse to about a third, and the port-5 compare pressure vanishes.
 *
 * The last table sets the Shoup multiply (the lazy NTT twiddle
 * multiply) on the emulated AVX-512 widening multiply against IFMA
 * 52-bit limbs: modeled port-0 pressure next to measured ns per
 * 8-lane vector on this host.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_util/rng.h"
#include "core/residue_span.h"
#include "mca/kernel_traces.h"
#include "mca/pressure.h"
#include "ntt/ntt.h"
#include "ntt/ntt_backends.h"
#include "ntt/prime.h"

namespace {

using namespace mqx;

using ShoupFn = void (*)(const Modulus&, DConstSpan, DConstSpan, DConstSpan,
                         DSpan);

/** The host's raw vector Shoup multiply for @p flavor, or nullptr. */
ShoupFn
shoupKernel(mca::TraceFlavor flavor)
{
#if MQX_BUILD_AVX512
    if (flavor == mca::TraceFlavor::Avx512 &&
        backendAvailable(Backend::Avx512))
        return &ntt::backends::vmulShoupLazyAvx512;
#endif
#if MQX_BUILD_AVX512_IFMA
    if (flavor == mca::TraceFlavor::Avx512Ifma && ntt::avx512Ifma())
        return &ntt::backends::vmulShoupLazyAvx512Ifma;
#endif
    (void)flavor;
    return nullptr;
}

/** Best-of-5 ns per 8-lane vector over 4096 lazy-range operands. */
double
measureShoupNs(ShoupFn fn, const Modulus& m)
{
    constexpr size_t n = 4096;
    constexpr int kReps = 200;
    const U128 q = m.value();
    ResidueVector a = ResidueVector::fromU128(randomResidues(n, q + q, 1));
    ResidueVector w = ResidueVector::fromU128(randomResidues(n, q, 2));
    ResidueVector wq(n), c(n);
    for (size_t i = 0; i < n; ++i)
        wq.set(i, mod::fromDw(mod::shoupPrecompute(mod::toDw(w.at(i)),
                                                   mod::toDw(q))));
    double best = 1e300;
    for (int trial = 0; trial < 5; ++trial) {
        auto t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < kReps; ++r)
            fn(m, a.span(), w.span(), wq.span(), c.span());
        std::chrono::duration<double, std::nano> dt =
            std::chrono::steady_clock::now() - t0;
        best = std::min(best, dt.count() / (kReps * (n / 8)));
    }
    return best;
}

} // namespace

int
main()
{
    using namespace mqx;

    Modulus m(ntt::defaultBenchPrime().q);

    std::printf("Instruction traces recorded from the shipped kernels\n");
    std::printf("(modulus: 124 bits; trace excludes loads/stores and\n");
    std::printf("per-call constants, matching Listing 4's scope)\n\n");

    for (auto flavor : {mca::TraceFlavor::Avx512, mca::TraceFlavor::MqxFull,
                        mca::TraceFlavor::MqxPredicated}) {
        auto trace = mca::traceKernel(mca::Kernel::AddMod, flavor, m);
        std::printf("-- addmod128, %s (%zu instructions) --\n",
                    mca::flavorName(flavor).c_str(), trace.size());
        auto analysis = mca::analyzeTrace(trace);
        std::fputs(mca::renderPressureTable(mca::flavorName(flavor),
                                            analysis)
                       .c_str(),
                   stdout);
        std::printf("%s\n\n", mca::summarizeAnalysis(analysis).c_str());
    }

    std::printf("-- shoupmul128: emulated AVX-512 vs IFMA (per 8 lanes) --\n");
    std::printf("%-14s %6s %11s %13s %9s\n", "flavor", "instrs",
                "port0 uops", "model cycles", "ns here");
    for (auto flavor :
         {mca::TraceFlavor::Avx512, mca::TraceFlavor::Avx512Ifma}) {
        auto analysis = mca::analyzeTrace(
            mca::traceKernel(mca::Kernel::ShoupMul, flavor, m));
        ShoupFn fn = shoupKernel(flavor);
        char ns[32] = "n/a";
        if (fn)
            std::snprintf(ns, sizeof ns, "%.2f", measureShoupNs(fn, m));
        std::printf("%-14s %6zu %11.1f %13.1f %9s\n",
                    mca::flavorName(flavor).c_str(), analysis.rows.size(),
                    analysis.totals[0], analysis.rthroughput, ns);
    }
    std::printf("(Backend::Avx512 Shoup multiply on this host: %s)\n\n",
                ntt::avx512ShoupKernel());

    // The proposed-instruction inventory.
    std::printf("proposed MQX instructions in the model:\n");
    for (const auto& d : mca::instrTable()) {
        if (d.proposed) {
            std::printf("  %-10s uops=%d lat=%d ports=0x%02x\n",
                        d.mnemonic.c_str(), d.uops, d.latency, d.ports);
        }
    }
    return 0;
}
