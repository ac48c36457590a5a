/**
 * @file
 * Machine-code analysis walkthrough (Fig. 3 / Listing 4): print the
 * exact instruction traces of the shipped modular-addition kernels and
 * their port-pressure analysis on the simplified Sunny Cove model —
 * the at-a-glance explanation of *why* MQX helps: 21 instructions
 * collapse to about a third, and the port-5 compare pressure vanishes.
 *
 * The last table sets the AVX-512 tier's kernels against the forms they
 * replaced — the Shoup and Barrett multiplies on the emulated widening
 * multiply vs IFMA 52-bit limbs, and the lazy forward butterfly on the
 * adc/sbb carry chain vs the headroom add/sub: modeled port-0 pressure
 * next to measured ns per 8-lane vector on this host. Its last rows are
 * the NTT's steady-state radix-2 forward butterfly (twiddles split per
 * vector), timed as a whole n = 4096 radix-2 forward per butterfly.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_util/rng.h"
#include "blas/blas_backends.h"
#include "core/residue_span.h"
#include "mca/kernel_traces.h"
#include "mca/pressure.h"
#include "ntt/ntt.h"
#include "ntt/ntt_backends.h"
#include "ntt/prime.h"
#include "simd/lazy_probe.h"

namespace {

using namespace mqx;

constexpr size_t kLanes = 4096; ///< operands per timed pass (and NTT n)

/** Operands and outputs of the timed passes (lazy range [0, 2q)). */
struct Operands
{
    explicit Operands(const Modulus& m)
        : a(ResidueVector::fromU128(
              randomResidues(kLanes, m.value() + m.value(), 1))),
          b(ResidueVector::fromU128(randomResidues(kLanes, m.value(), 2))),
          w(ResidueVector::fromU128(randomResidues(kLanes, m.value(), 3))),
          wq(kLanes), c(kLanes), d(kLanes)
    {
        for (size_t i = 0; i < kLanes; ++i)
            wq.set(i, m.shoupCompanion(w.at(i)));
    }
    ResidueVector a, b, w, wq, c, d;
};

/**
 * Best-of-5 ns per 8-lane vector of @p pass, which runs @p vectors
 * 8-lane steps (by default one per 8 of kLanes operands).
 */
template <class Pass>
double
perVectorNs(Pass pass, size_t vectors = kLanes / 8)
{
    constexpr int kReps = 200;
    double best = 1e300;
    for (int trial = 0; trial < 5; ++trial) {
        auto t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < kReps; ++r)
            pass();
        std::chrono::duration<double, std::nano> dt =
            std::chrono::steady_clock::now() - t0;
        best = std::min(best, dt.count() / (kReps * vectors));
    }
    return best;
}

#if MQX_BUILD_AVX512
/** ns per 8-lane butterfly of a radix-2 Backend::Avx512 forward. */
double
forwardButterflyNs(const Modulus& m, Operands& o)
{
    const ntt::NttPlan plan(m, kLanes);
    const size_t butterflies = kLanes / 2 * static_cast<size_t>(plan.logn());
    return perVectorNs(
        [&] {
            ntt::forward(plan, Backend::Avx512, o.b.span(), o.c.span(),
                         o.d.span(), Reduction::ShoupLazy,
                         StageFusion::Radix2);
        },
        butterflies / 8);
}
#endif

/**
 * ns per 8 lanes of @p kernel under @p flavor on this host (the
 * AVX-512 entry point that runs exactly that trace), or a negative
 * value when the host cannot run it.
 */
double
measuredNs(mca::Kernel kernel, mca::TraceFlavor flavor, const Modulus& m,
           Operands& o)
{
    namespace nb = ntt::backends;
    namespace bb = blas::backends;
    const bool carry = kernel == mca::Kernel::LazyButterflyCarry;
#if MQX_BUILD_AVX512
    if (flavor == mca::TraceFlavor::Avx512 &&
        backendAvailable(Backend::Avx512)) {
        switch (kernel) {
          case mca::Kernel::ShoupMul:
            return perVectorNs([&] {
                nb::vmulShoupLazyAvx512(m, o.a.span(), o.w.span(),
                                        o.wq.span(), o.c.span());
            });
          case mca::Kernel::MulMod:
            return perVectorNs([&] {
                bb::vmulAvx512(m, o.b.span(), o.w.span(), o.c.span());
            });
          case mca::Kernel::LazyButterfly:
          case mca::Kernel::LazyButterflyCarry:
            return perVectorNs([&] {
                simd::lazyProbeAvx512(simd::LazyOp::Butterfly, carry, m,
                                    o.a.span(), o.b.span(), o.c.span(),
                                    o.d.span());
            });
          case mca::Kernel::ForwardButterfly:
            if (!avx512Ifma())
                return forwardButterflyNs(m, o);
            break;
          default:
            break;
        }
    }
#endif
#if MQX_BUILD_AVX512_IFMA
    if (flavor == mca::TraceFlavor::Avx512Ifma && avx512Ifma()) {
        switch (kernel) {
          case mca::Kernel::ShoupMul:
            return perVectorNs([&] {
                nb::vmulShoupLazyAvx512Ifma(m, o.a.span(), o.w.span(),
                                            o.wq.span(), o.c.span());
            });
          case mca::Kernel::MulMod:
            return perVectorNs([&] {
                bb::vmulAvx512Ifma(m, o.b.span(), o.w.span(), o.c.span());
            });
          case mca::Kernel::LazyButterfly:
          case mca::Kernel::LazyButterflyCarry:
            return perVectorNs([&] {
                simd::lazyProbeAvx512Ifma(simd::LazyOp::Butterfly, carry, m,
                                        o.a.span(), o.b.span(), o.c.span(),
                                        o.d.span());
            });
          case mca::Kernel::ForwardButterfly:
            return forwardButterflyNs(m, o);
          default:
            break;
        }
    }
#endif
    (void)kernel, (void)flavor, (void)m, (void)o, (void)carry;
    return -1.0;
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

    // The AVX-512 kernels this tier ships, each against the form it
    // replaced: the Shoup and Barrett multiplies on the emulated 64x64
    // multiply vs IFMA 52-bit limbs, and the lazy forward butterfly
    // (add + sub + Shoup multiply) on the adc/sbb carry chain vs the
    // headroom add/sub. Modeled port-0 uops (those only port 0 can
    // issue, and the model's port-0 total) and cycles next to ns
    // measured on this host. The fwd-butterfly rows are the NTT's
    // steady-state radix-2 step (the forward runs the backend's own
    // multiply, so only the flavor this host runs gets a time).
    std::printf("-- AVX-512 kernels: modeled vs measured (per 8 lanes) --\n");
    std::printf("%-20s %-14s %6s %8s %11s %13s %9s\n", "kernel", "flavor",
                "instrs", "p0-only", "port0 uops", "model cycles",
                "ns here");
    Operands ops(m);
    const struct
    {
        mca::Kernel kernel;
        mca::TraceFlavor flavor;
    } rows[] = {
        {mca::Kernel::ShoupMul, mca::TraceFlavor::Avx512},
        {mca::Kernel::ShoupMul, mca::TraceFlavor::Avx512Ifma},
        {mca::Kernel::MulMod, mca::TraceFlavor::Avx512},
        {mca::Kernel::MulMod, mca::TraceFlavor::Avx512Ifma},
        {mca::Kernel::LazyButterflyCarry, mca::TraceFlavor::Avx512},
        {mca::Kernel::LazyButterfly, mca::TraceFlavor::Avx512},
        {mca::Kernel::LazyButterflyCarry, mca::TraceFlavor::Avx512Ifma},
        {mca::Kernel::LazyButterfly, mca::TraceFlavor::Avx512Ifma},
        {mca::Kernel::ForwardButterfly, mca::TraceFlavor::Avx512},
        {mca::Kernel::ForwardButterfly, mca::TraceFlavor::Avx512Ifma},
    };
    for (const auto& row : rows) {
        auto analysis =
            mca::analyzeTrace(mca::traceKernel(row.kernel, row.flavor, m));
        const double t = measuredNs(row.kernel, row.flavor, m, ops);
        char ns[32] = "n/a";
        if (t >= 0.0)
            std::snprintf(ns, sizeof ns, "%.2f", t);
        std::printf("%-20s %-14s %6zu %8d %11.1f %13.1f %9s\n",
                    mca::kernelName(row.kernel).c_str(),
                    mca::flavorName(row.flavor).c_str(),
                    analysis.rows.size(), analysis.port0_only,
                    analysis.totals[0], analysis.rthroughput, ns);
    }
    std::printf("(Backend::Avx512 multiplies on this host, NTT and BLAS: "
                "%s)\n\n",
                avx512Kernel());

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
