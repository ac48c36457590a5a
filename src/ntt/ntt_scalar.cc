/**
 * @file
 * Optimized scalar Pease NTT (paper Section 3.1 tier).
 *
 * Uses the native-128-bit scalar modular arithmetic — "used for
 * benchmarking, as it allows the compiler to exploit specialized
 * assembly instructions such as add with carry" — in the same
 * constant-geometry dataflow as the SIMD backends. Both reduction
 * strategies are provided: the Barrett baseline and the Shoup-lazy
 * steady state (see pease_impl.h for the range discipline).
 */
#include "ntt/ntt_backends.h"

#include "ntt/pease_impl.h"

namespace mqx {
namespace ntt {
namespace backends {

namespace {

void
forwardStageScalar(const Modulus& m, const mod::Barrett<uint64_t>& br,
                   const uint64_t* src_hi, const uint64_t* src_lo,
                   uint64_t* dst_hi, uint64_t* dst_lo, const uint64_t* tw_hi,
                   const uint64_t* tw_lo, size_t h, int s, MulAlgo algo)
{
    for (size_t j = 0; j < h; ++j) {
        size_t e = NttPlan::stageTwiddleIndex(s, j);
        U128 a = U128::fromParts(src_hi[j], src_lo[j]);
        U128 b = U128::fromParts(src_hi[j + h], src_lo[j + h]);
        U128 w = U128::fromParts(tw_hi[e], tw_lo[e]);
        U128 u = m.add(a, b);
        mod::DW<uint64_t> d = mod::toDw(m.sub(a, b));
        mod::DW<uint64_t> dw = mod::toDw(w);
        auto v = algo == MulAlgo::Schoolbook ? mod::mulModSchool(d, dw, br)
                                             : mod::mulModKaratsuba(d, dw, br);
        dst_hi[2 * j] = u.hi;
        dst_lo[2 * j] = u.lo;
        dst_hi[2 * j + 1] = v.hi;
        dst_lo[2 * j + 1] = v.lo;
    }
}

void
inverseStageScalar(const Modulus& m, const mod::Barrett<uint64_t>& br,
                   const uint64_t* src_hi, const uint64_t* src_lo,
                   uint64_t* dst_hi, uint64_t* dst_lo, const uint64_t* tw_hi,
                   const uint64_t* tw_lo, size_t h, int s, MulAlgo algo)
{
    for (size_t j = 0; j < h; ++j) {
        size_t e = NttPlan::stageTwiddleIndex(s, j);
        U128 u = U128::fromParts(src_hi[2 * j], src_lo[2 * j]);
        mod::DW<uint64_t> v{src_hi[2 * j + 1], src_lo[2 * j + 1]};
        mod::DW<uint64_t> w{tw_hi[e], tw_lo[e]};
        auto tm = algo == MulAlgo::Schoolbook ? mod::mulModSchool(v, w, br)
                                              : mod::mulModKaratsuba(v, w, br);
        U128 t = mod::fromDw(tm);
        U128 x0 = m.add(u, t);
        U128 x1 = m.sub(u, t);
        dst_hi[j] = x0.hi;
        dst_lo[j] = x0.lo;
        dst_hi[j + h] = x1.hi;
        dst_lo[j + h] = x1.lo;
    }
}

void
forwardScalarBarrett(const NttPlan& plan, DConstSpan in, DSpan out,
                     DSpan scratch, MulAlgo algo)
{
    const size_t h = plan.half();
    const int m = plan.logn();
    const Modulus& mod = plan.modulus();
    const auto& br = mod.barrett();

    DSpan bufs[2] = {out, scratch};
    int target = (m % 2 == 1) ? 0 : 1;
    const uint64_t* src_hi = in.hi;
    const uint64_t* src_lo = in.lo;
    for (int s = 0; s < m; ++s) {
        DSpan dst = bufs[target];
        forwardStageScalar(mod, br, src_hi, src_lo, dst.hi, dst.lo,
                           plan.twiddleHi(), plan.twiddleLo(), h, s, algo);
        src_hi = dst.hi;
        src_lo = dst.lo;
        target ^= 1;
    }
}

void
inverseScalarBarrett(const NttPlan& plan, DConstSpan in, DSpan out,
                     DSpan scratch, MulAlgo algo)
{
    const size_t h = plan.half();
    const int m = plan.logn();
    const Modulus& mod = plan.modulus();
    const auto& br = mod.barrett();

    DSpan bufs[2] = {out, scratch};
    int target = (m % 2 == 1) ? 0 : 1;
    const uint64_t* src_hi = in.hi;
    const uint64_t* src_lo = in.lo;
    for (int s = m - 1; s >= 0; --s) {
        DSpan dst = bufs[target];
        inverseStageScalar(mod, br, src_hi, src_lo, dst.hi, dst.lo,
                           plan.twiddleInvHi(), plan.twiddleInvLo(), h, s,
                           algo);
        src_hi = dst.hi;
        src_lo = dst.lo;
        target ^= 1;
    }

    const mod::DW<uint64_t> dn = mod::toDw(plan.nInv());
    for (size_t i = 0; i < plan.n(); ++i) {
        mod::DW<uint64_t> x{out.hi[i], out.lo[i]};
        auto r = algo == MulAlgo::Schoolbook ? mod::mulModSchool(x, dn, br)
                                             : mod::mulModKaratsuba(x, dn, br);
        out.hi[i] = r.hi;
        out.lo[i] = r.lo;
    }
}

void
forwardScalarLazy(const NttPlan& plan, DConstSpan in, DSpan out,
                  DSpan scratch, MulAlgo algo)
{
    const size_t h = plan.half();
    const int m = plan.logn();
    const mod::DW<uint64_t> q = mod::toDw(plan.modulus().value());
    const mod::DW<uint64_t> q2 = mod::shl1Dw(q);

    DSpan bufs[2] = {out, scratch};
    int target = (m % 2 == 1) ? 0 : 1;
    const uint64_t* src_hi = in.hi;
    const uint64_t* src_lo = in.lo;
    for (int s = 0; s < m; ++s) {
        const bool last = s == m - 1;
        DSpan dst = bufs[target];
        for (size_t j = 0; j < h; ++j) {
            detail::forwardButterflyLazyScalar(
                q, q2, src_hi, src_lo, dst.hi, dst.lo, plan.twiddleHi(),
                plan.twiddleLo(), plan.twiddleShoupHi(), plan.twiddleShoupLo(),
                j, h, s, last, algo);
        }
        src_hi = dst.hi;
        src_lo = dst.lo;
        target ^= 1;
    }
}

void
inverseScalarLazy(const NttPlan& plan, DConstSpan in, DSpan out,
                  DSpan scratch, MulAlgo algo)
{
    const size_t h = plan.half();
    const int m = plan.logn();
    const mod::DW<uint64_t> q = mod::toDw(plan.modulus().value());
    const mod::DW<uint64_t> q2 = mod::shl1Dw(q);

    DSpan bufs[2] = {out, scratch};
    int target = (m % 2 == 1) ? 0 : 1;
    const uint64_t* src_hi = in.hi;
    const uint64_t* src_lo = in.lo;
    for (int s = m - 1; s >= 0; --s) {
        DSpan dst = bufs[target];
        for (size_t j = 0; j < h; ++j) {
            detail::inverseButterflyLazyScalar(
                q, q2, src_hi, src_lo, dst.hi, dst.lo, plan.twiddleInvHi(),
                plan.twiddleInvLo(), plan.twiddleInvShoupHi(),
                plan.twiddleInvShoupLo(), j, h, s, algo);
        }
        src_hi = dst.hi;
        src_lo = dst.lo;
        target ^= 1;
    }

    const mod::DW<uint64_t> dn = mod::toDw(plan.nInv());
    const mod::DW<uint64_t> dnq = mod::toDw(plan.nInvShoup());
    for (size_t i = 0; i < plan.n(); ++i) {
        detail::mulShoupCanonElementScalar(q, out.hi, out.lo, out.hi, out.lo,
                                           dn, dnq, i, algo);
    }
}

/** Fused radix-4 forward (see pease_impl.h): ceil(logn/2) sweeps. */
void
forwardScalarLazy4(const NttPlan& plan, DConstSpan in, DSpan out,
                   DSpan scratch, MulAlgo algo)
{
    const size_t h = plan.half();
    const size_t h2 = h / 2;
    const int m = plan.logn();
    const mod::DW<uint64_t> q = mod::toDw(plan.modulus().value());
    const mod::DW<uint64_t> q2 = mod::shl1Dw(q);
    const uint64_t* tw_hi = plan.twiddleHi();
    const uint64_t* tw_lo = plan.twiddleLo();
    const uint64_t* twq_hi = plan.twiddleShoupHi();
    const uint64_t* twq_lo = plan.twiddleShoupLo();

    DSpan bufs[2] = {out, scratch};
    const int passes = (m + 1) / 2;
    int target = (passes % 2 == 1) ? 0 : 1;
    const uint64_t* src_hi = in.hi;
    const uint64_t* src_lo = in.lo;
    int s = 0;
    if (m % 2 == 1) {
        DSpan dst = bufs[target];
        for (size_t j = 0; j < h; ++j) {
            detail::forwardButterflyLazyScalar(q, q2, src_hi, src_lo, dst.hi,
                                               dst.lo, tw_hi, tw_lo, twq_hi,
                                               twq_lo, j, h, 0, m == 1,
                                               algo);
        }
        src_hi = dst.hi;
        src_lo = dst.lo;
        target ^= 1;
        s = 1;
    }
    for (; s + 1 < m; s += 2) {
        const bool last = s + 2 == m;
        DSpan dst = bufs[target];
        // The three twiddles are constant over runs of 2^s butterflies;
        // hoist their loads out of the inner loop (the compiler cannot:
        // the dst stores might alias the tables for all it knows).
        const size_t run = size_t{1} << s; // divides h2 (s <= logn - 2)
        for (size_t base = 0; base < h2; base += run) {
            const size_t e0 = base, e1 = base + h2, eb = 2 * base;
            const mod::DW<uint64_t> w0{tw_hi[e0], tw_lo[e0]};
            const mod::DW<uint64_t> w0q{twq_hi[e0], twq_lo[e0]};
            const mod::DW<uint64_t> w1{tw_hi[e1], tw_lo[e1]};
            const mod::DW<uint64_t> w1q{twq_hi[e1], twq_lo[e1]};
            const mod::DW<uint64_t> wb{tw_hi[eb], tw_lo[eb]};
            const mod::DW<uint64_t> wbq{twq_hi[eb], twq_lo[eb]};
            for (size_t p = base; p < base + run; ++p) {
                detail::forwardButterfly4LazyCore(q, q2, src_hi, src_lo,
                                                  dst.hi, dst.lo, w0, w0q,
                                                  w1, w1q, wb, wbq, p, h,
                                                  last, algo);
            }
        }
        src_hi = dst.hi;
        src_lo = dst.lo;
        target ^= 1;
    }
}

/** Fused radix-4 inverse + the n^-1 Shoup scaling pass. */
void
inverseScalarLazy4(const NttPlan& plan, DConstSpan in, DSpan out,
                   DSpan scratch, MulAlgo algo)
{
    const size_t h = plan.half();
    const size_t h2 = h / 2;
    const int m = plan.logn();
    const mod::DW<uint64_t> q = mod::toDw(plan.modulus().value());
    const mod::DW<uint64_t> q2 = mod::shl1Dw(q);
    const uint64_t* tw_hi = plan.twiddleInvHi();
    const uint64_t* tw_lo = plan.twiddleInvLo();
    const uint64_t* twq_hi = plan.twiddleInvShoupHi();
    const uint64_t* twq_lo = plan.twiddleInvShoupLo();

    DSpan bufs[2] = {out, scratch};
    const int passes = (m + 1) / 2;
    int target = (passes % 2 == 1) ? 0 : 1;
    const uint64_t* src_hi = in.hi;
    const uint64_t* src_lo = in.lo;
    int s = m - 1;
    for (; s >= 1; s -= 2) {
        const int sl = s - 1;
        DSpan dst = bufs[target];
        // Same run-split twiddle hoisting as the forward pass.
        const size_t run = size_t{1} << sl;
        for (size_t base = 0; base < h2; base += run) {
            const size_t e0 = base, e1 = base + h2, eb = 2 * base;
            const mod::DW<uint64_t> w0{tw_hi[e0], tw_lo[e0]};
            const mod::DW<uint64_t> w0q{twq_hi[e0], twq_lo[e0]};
            const mod::DW<uint64_t> w1{tw_hi[e1], tw_lo[e1]};
            const mod::DW<uint64_t> w1q{twq_hi[e1], twq_lo[e1]};
            const mod::DW<uint64_t> wb{tw_hi[eb], tw_lo[eb]};
            const mod::DW<uint64_t> wbq{twq_hi[eb], twq_lo[eb]};
            for (size_t p = base; p < base + run; ++p) {
                detail::inverseButterfly4LazyCore(q, q2, src_hi, src_lo,
                                                  dst.hi, dst.lo, w0, w0q,
                                                  w1, w1q, wb, wbq, p, h,
                                                  algo);
            }
        }
        src_hi = dst.hi;
        src_lo = dst.lo;
        target ^= 1;
    }
    if (s == 0) {
        DSpan dst = bufs[target];
        for (size_t j = 0; j < h; ++j) {
            detail::inverseButterflyLazyScalar(q, q2, src_hi, src_lo, dst.hi,
                                               dst.lo, tw_hi, tw_lo, twq_hi,
                                               twq_lo, j, h, 0, algo);
        }
    }

    const mod::DW<uint64_t> dn = mod::toDw(plan.nInv());
    const mod::DW<uint64_t> dnq = mod::toDw(plan.nInvShoup());
    for (size_t i = 0; i < plan.n(); ++i) {
        detail::mulShoupCanonElementScalar(q, out.hi, out.lo, out.hi, out.lo,
                                           dn, dnq, i, algo);
    }
}

} // namespace

void
forwardScalar(const NttPlan& plan, DConstSpan in, DSpan out, DSpan scratch,
              MulAlgo algo, Reduction red, StageFusion fusion)
{
    detail::validateNttArgs(plan, in, out, scratch);
    if (red == Reduction::ShoupLazy) {
        if (fusion == StageFusion::Radix4)
            forwardScalarLazy4(plan, in, out, scratch, algo);
        else
            forwardScalarLazy(plan, in, out, scratch, algo);
    } else {
        forwardScalarBarrett(plan, in, out, scratch, algo);
    }
}

void
inverseScalar(const NttPlan& plan, DConstSpan in, DSpan out, DSpan scratch,
              MulAlgo algo, Reduction red, StageFusion fusion)
{
    detail::validateNttArgs(plan, in, out, scratch);
    if (red == Reduction::ShoupLazy) {
        if (fusion == StageFusion::Radix4)
            inverseScalarLazy4(plan, in, out, scratch, algo);
        else
            inverseScalarLazy(plan, in, out, scratch, algo);
    } else {
        inverseScalarBarrett(plan, in, out, scratch, algo);
    }
}

} // namespace backends
} // namespace ntt
} // namespace mqx
