/**
 * @file
 * Single-word SIMD kernels and the Pease NTT stage loops, templated over
 * the same ISA policy concept as the double-word kernels. One 64-bit
 * residue per lane — the layout every 64-bit FHE library uses.
 *
 * Shoup-lazy arithmetic throughout: [0, 2q) operands between stages,
 * precomputed twiddle quotients, and one fused canonicalization (last
 * forward stage / inverse n^-1 scaling). Twiddles come from the plan's
 * compact power tables with contiguous/step/broadcast stage addressing.
 * The radix-2 loop (forward64LazyImpl) and the fused radix-4 loop
 * (forward64Lazy4Impl) give the same words; word64.cc picks one per
 * backend.
 */
#pragma once

#include "word64/word64.h"

namespace mqx {
namespace w64 {

/** Broadcast single-word modulus context. */
template <class Isa>
struct Ctx64
{
    typename Isa::V q;
    typename Isa::V q2; ///< 2q (lazy-reduction bound)
};

template <class Isa>
inline Ctx64<Isa>
makeCtx64(const Modulus64& m)
{
    // q < 2^62: 2q does not overflow.
    return {Isa::set1(m.value()), Isa::set1(m.value() * 2)};
}

/**
 * Stage-s gather from a compact power table (see
 * Ntt64Plan::stageTwiddleIndex): contiguous at stage 0, short step load
 * while the run length 2^s is under the lane count, one broadcast
 * afterwards.
 */
template <class Isa>
inline typename Isa::V
loadStageTwiddles64(const uint64_t* tw, size_t j, int s)
{
    if (s == 0)
        return Isa::loadu(tw + j);
    if ((size_t{1} << s) >= Isa::kLanes)
        return Isa::set1(tw[(j >> s) << s]);
    alignas(64) uint64_t t[Isa::kLanes];
    for (size_t i = 0; i < Isa::kLanes; ++i)
        t[i] = tw[((j + i) >> s) << s];
    return Isa::loadu(t);
}

/**
 * Second-layer twiddle load for the fused radix-4 pass (see
 * Ntt64Plan::stageTwiddlePair): stride-2/step gather below the lane
 * count, one broadcast afterwards.
 */
template <class Isa>
inline typename Isa::V
loadStageTwiddles64Pair(const uint64_t* tw, size_t p, int s)
{
    if ((size_t{1} << s) >= Isa::kLanes)
        return Isa::set1(tw[Ntt64Plan::stageTwiddlePair(s, p)]);
    alignas(64) uint64_t t[Isa::kLanes];
    for (size_t i = 0; i < Isa::kLanes; ++i)
        t[i] = tw[Ntt64Plan::stageTwiddlePair(s, p + i)];
    return Isa::loadu(t);
}

/** 4-way interleave from two interleave2 rounds (fused radix-4 store). */
template <class Isa>
inline void
interleave64x4(typename Isa::V z0, typename Isa::V z1, typename Isa::V z2,
               typename Isa::V z3, typename Isa::V& o0, typename Isa::V& o1,
               typename Isa::V& o2, typename Isa::V& o3)
{
    typename Isa::V a0, a1, b0, b1;
    Isa::interleave2(z0, z2, a0, a1);
    Isa::interleave2(z1, z3, b0, b1);
    Isa::interleave2(a0, b0, o0, o1);
    Isa::interleave2(a1, b1, o2, o3);
}

/** Exact inverse of interleave64x4 (fused radix-4 inverse load). */
template <class Isa>
inline void
deinterleave64x4(typename Isa::V o0, typename Isa::V o1, typename Isa::V o2,
                 typename Isa::V o3, typename Isa::V& z0, typename Isa::V& z1,
                 typename Isa::V& z2, typename Isa::V& z3)
{
    typename Isa::V a0, a1, b0, b1;
    Isa::deinterleave2(o0, o1, a0, b0);
    Isa::deinterleave2(o2, o3, a1, b1);
    Isa::deinterleave2(a0, a1, z0, z2);
    Isa::deinterleave2(b0, b1, z1, z3);
}

/** Lazy add: inputs [0, 2q) -> output [0, 2q) (transient < 4q < 2^64). */
template <class Isa>
inline typename Isa::V
addMod64LazyV(const Ctx64<Isa>& ctx, typename Isa::V a, typename Isa::V b)
{
    auto s = Isa::add(a, b);
    auto ge = Isa::cmpLeU(ctx.q2, s);
    return Isa::maskSub(s, ge, s, ctx.q2);
}

/** Raw lazy difference a - b + 2q in (0, 4q) for inputs in [0, 2q). */
template <class Isa>
inline typename Isa::V
subMod64LazyRawV(const Ctx64<Isa>& ctx, typename Isa::V a, typename Isa::V b)
{
    return Isa::sub(Isa::add(a, ctx.q2), b);
}

/** Per-lane x >= b ? x - b : x. */
template <class Isa>
inline typename Isa::V
condSub64V(typename Isa::V x, typename Isa::V b)
{
    auto ge = Isa::cmpLeU(b, x);
    return Isa::maskSub(x, ge, x, b);
}

/**
 * Shoup product per lane: r = a*w - mulhi(a, wq)*q, in [0, 2q) for any
 * a. One widening multiply plus two low multiplies.
 */
template <class Isa>
inline typename Isa::V
mulMod64ShoupV(const Ctx64<Isa>& ctx, typename Isa::V a, typename Isa::V w,
               typename Isa::V wq)
{
    typename Isa::V h_hi, h_lo;
    Isa::mulWide(a, wq, h_hi, h_lo);
    return Isa::sub(Isa::mullo(a, w), Isa::mullo(h_hi, ctx.q));
}

/**
 * Forward radix-2 stage s over butterflies [j0, h), one word at a time:
 * [0, 2q) in and out, canonical when @p last. The Scalar backend's
 * odd-logn pass and the tail of every SIMD stage.
 */
inline void
forwardStage64Tail(const Ntt64Plan& plan, const uint64_t* src, uint64_t* dst,
                   size_t j0, int s, bool last)
{
    const size_t h = plan.half();
    const Modulus64& mod = plan.modulus();
    const uint64_t q = mod.value();
    const uint64_t q2 = 2 * q;
    const uint64_t* tw = plan.twiddle();
    const uint64_t* twq = plan.twiddleShoup();
    for (size_t j = j0; j < h; ++j) {
        size_t e = Ntt64Plan::stageTwiddleIndex(s, j);
        uint64_t t = src[j] + src[j + h]; // < 4q < 2^64
        uint64_t u = t >= q2 ? t - q2 : t;
        uint64_t d = src[j] + q2 - src[j + h]; // (0, 4q)
        uint64_t v = mod.mulModShoup(d, tw[e], twq[e]);
        if (last) {
            u = u >= q ? u - q : u;
            v = v >= q ? v - q : v;
        }
        dst[2 * j] = u;
        dst[2 * j + 1] = v;
    }
}

/** Inverse radix-2 stage s over butterflies [j0, h): [0, 2q) in/out. */
inline void
inverseStage64Tail(const Ntt64Plan& plan, const uint64_t* src, uint64_t* dst,
                   size_t j0, int s)
{
    const size_t h = plan.half();
    const Modulus64& mod = plan.modulus();
    const uint64_t q2 = 2 * mod.value();
    const uint64_t* tw = plan.twiddleInv();
    const uint64_t* twq = plan.twiddleInvShoup();
    for (size_t j = j0; j < h; ++j) {
        size_t e = Ntt64Plan::stageTwiddleIndex(s, j);
        uint64_t u = src[2 * j];
        uint64_t t = mod.mulModShoup(src[2 * j + 1], tw[e], twq[e]);
        uint64_t s0 = u + t;
        uint64_t s1 = u + q2 - t;
        dst[j] = s0 >= q2 ? s0 - q2 : s0;
        dst[j + h] = s1 >= q2 ? s1 - q2 : s1;
    }
}

/** Fused n^-1 Shoup scaling + canonicalization of out[i0, n). */
inline void
scaleNInv64Tail(const Ntt64Plan& plan, uint64_t* out, size_t i0)
{
    const Modulus64& mod = plan.modulus();
    const uint64_t q = mod.value();
    const size_t n = plan.n();
    const uint64_t n_inv = plan.nInv();
    const uint64_t n_inv_sh = plan.nInvShoup();
    for (size_t i = i0; i < n; ++i) {
        uint64_t r = mod.mulModShoup(out[i], n_inv, n_inv_sh);
        out[i] = r >= q ? r - q : r;
    }
}

/** SIMD forward radix-2 stage s (forwardStage64Tail per lane). */
template <class Isa>
inline void
forwardStage64(const Ntt64Plan& plan, const uint64_t* src, uint64_t* dst,
               int s, bool last)
{
    const size_t h = plan.half();
    const Ctx64<Isa> ctx = makeCtx64<Isa>(plan.modulus());
    const uint64_t* tw = plan.twiddle();
    const uint64_t* twq = plan.twiddleShoup();
    size_t j = 0;
    for (; j + Isa::kLanes <= h; j += Isa::kLanes) {
        auto a = Isa::loadu(src + j);
        auto b = Isa::loadu(src + j + h);
        auto w = loadStageTwiddles64<Isa>(tw, j, s);
        auto wq = loadStageTwiddles64<Isa>(twq, j, s);
        auto u = addMod64LazyV<Isa>(ctx, a, b);
        auto v = mulMod64ShoupV<Isa>(ctx, subMod64LazyRawV<Isa>(ctx, a, b),
                                     w, wq);
        if (last) {
            u = condSub64V<Isa>(u, ctx.q);
            v = condSub64V<Isa>(v, ctx.q);
        }
        typename Isa::V blk0, blk1;
        Isa::interleave2(u, v, blk0, blk1);
        Isa::storeu(dst + 2 * j, blk0);
        Isa::storeu(dst + 2 * j + Isa::kLanes, blk1);
    }
    forwardStage64Tail(plan, src, dst, j, s, last);
}

/** SIMD inverse radix-2 stage s (inverseStage64Tail per lane). */
template <class Isa>
inline void
inverseStage64(const Ntt64Plan& plan, const uint64_t* src, uint64_t* dst,
               int s)
{
    const size_t h = plan.half();
    const Ctx64<Isa> ctx = makeCtx64<Isa>(plan.modulus());
    const uint64_t* tw = plan.twiddleInv();
    const uint64_t* twq = plan.twiddleInvShoup();
    size_t j = 0;
    for (; j + Isa::kLanes <= h; j += Isa::kLanes) {
        auto blk0 = Isa::loadu(src + 2 * j);
        auto blk1 = Isa::loadu(src + 2 * j + Isa::kLanes);
        typename Isa::V u, v;
        Isa::deinterleave2(blk0, blk1, u, v);
        auto w = loadStageTwiddles64<Isa>(tw, j, s);
        auto wq = loadStageTwiddles64<Isa>(twq, j, s);
        auto t = mulMod64ShoupV<Isa>(ctx, v, w, wq); // [0, 2q)
        Isa::storeu(dst + j, addMod64LazyV<Isa>(ctx, u, t));
        Isa::storeu(dst + j + h,
                    condSub64V<Isa>(subMod64LazyRawV<Isa>(ctx, u, t),
                                    ctx.q2));
    }
    inverseStage64Tail(plan, src, dst, j, s);
}

/** SIMD n^-1 scaling + canonicalization (scaleNInv64Tail per lane). */
template <class Isa>
inline void
scaleNInv64(const Ntt64Plan& plan, uint64_t* out)
{
    const Ctx64<Isa> ctx = makeCtx64<Isa>(plan.modulus());
    auto vninv = Isa::set1(plan.nInv());
    auto vninvq = Isa::set1(plan.nInvShoup());
    const size_t n = plan.n();
    size_t i = 0;
    for (; i + Isa::kLanes <= n; i += Isa::kLanes) {
        auto r = mulMod64ShoupV<Isa>(ctx, Isa::loadu(out + i), vninv, vninvq);
        Isa::storeu(out + i, condSub64V<Isa>(r, ctx.q));
    }
    scaleNInv64Tail(plan, out, i);
}

/**
 * Forward Pease radix-2 stage loop: canonical input, canonical output;
 * [0, 2q) between stages, canonicalization fused into the last stage.
 */
template <class Isa>
void
forward64LazyImpl(const Ntt64Plan& plan, const uint64_t* in, uint64_t* out,
                  uint64_t* scratch)
{
    const int m = plan.logn();
    uint64_t* bufs[2] = {out, scratch};
    int target = (m % 2 == 1) ? 0 : 1;
    const uint64_t* src = in;
    for (int s = 0; s < m; ++s) {
        forwardStage64<Isa>(plan, src, bufs[target], s, s == m - 1);
        src = bufs[target];
        target ^= 1;
    }
}

/**
 * Inverse Pease radix-2 stage loop; canonicalization is fused into the
 * n^-1 Shoup scaling pass.
 */
template <class Isa>
void
inverse64LazyImpl(const Ntt64Plan& plan, const uint64_t* in, uint64_t* out,
                  uint64_t* scratch)
{
    const int m = plan.logn();
    uint64_t* bufs[2] = {out, scratch};
    int target = (m % 2 == 1) ? 0 : 1;
    const uint64_t* src = in;
    for (int s = m - 1; s >= 0; --s) {
        inverseStage64<Isa>(plan, src, bufs[target], s);
        src = bufs[target];
        target ^= 1;
    }
    scaleNInv64<Isa>(plan, out);
}

/**
 * Twiddle-valued core of the single-word fused radix-4 forward
 * butterfly: exactly two consecutive lazy radix-2 layers kept in
 * registers — bit-identical to the radix-2 path. [0, 2q) in/out;
 * canonical when @p last. Same run-split hoisting contract as the
 * double-word core (the compiler cannot hoist the twiddle loads past
 * the dst stores itself).
 */
inline void
forwardButterfly64Lazy4Core(const Modulus64& mod, uint64_t q, uint64_t q2,
                            const uint64_t* MQX_RESTRICT src,
                            uint64_t* MQX_RESTRICT dst, uint64_t w0,
                            uint64_t w0q, uint64_t w1, uint64_t w1q,
                            uint64_t wb, uint64_t wbq, size_t p, size_t h,
                            bool last)
{
    const size_t h2 = h / 2;
    const uint64_t a = src[p], b = src[p + h2];
    const uint64_t c = src[p + h], d = src[p + h + h2];
    uint64_t t = a + c;
    uint64_t u0 = t >= q2 ? t - q2 : t;
    uint64_t v0 = mod.mulModShoup(a + q2 - c, w0, w0q);
    t = b + d;
    uint64_t u1 = t >= q2 ? t - q2 : t;
    uint64_t v1 = mod.mulModShoup(b + q2 - d, w1, w1q);
    t = u0 + u1;
    uint64_t z0 = t >= q2 ? t - q2 : t;
    uint64_t z1 = mod.mulModShoup(u0 + q2 - u1, wb, wbq);
    t = v0 + v1;
    uint64_t z2 = t >= q2 ? t - q2 : t;
    uint64_t z3 = mod.mulModShoup(v0 + q2 - v1, wb, wbq);
    if (last) {
        z0 = z0 >= q ? z0 - q : z0;
        z1 = z1 >= q ? z1 - q : z1;
        z2 = z2 >= q ? z2 - q : z2;
        z3 = z3 >= q ? z3 - q : z3;
    }
    dst[4 * p] = z0;
    dst[4 * p + 1] = z1;
    dst[4 * p + 2] = z2;
    dst[4 * p + 3] = z3;
}

/** Index-computing wrapper (SIMD tail loops). */
inline void
forwardButterfly64Lazy4(const Modulus64& mod, uint64_t q, uint64_t q2,
                        const uint64_t* src, uint64_t* dst,
                        const uint64_t* tw, const uint64_t* twq, size_t p,
                        size_t h, int s, bool last)
{
    const size_t e0 = Ntt64Plan::stageTwiddleIndex(s, p);
    const size_t e1 = e0 + h / 2;
    const size_t eb = Ntt64Plan::stageTwiddlePair(s, p);
    forwardButterfly64Lazy4Core(mod, q, q2, src, dst, tw[e0], twq[e0],
                                tw[e1], twq[e1], tw[eb], twq[eb], p, h,
                                last);
}

/** Twiddle-valued core of the fused inverse (pair (s_lo+1, s_lo)). */
inline void
inverseButterfly64Lazy4Core(const Modulus64& mod, uint64_t q2,
                            const uint64_t* MQX_RESTRICT src,
                            uint64_t* MQX_RESTRICT dst, uint64_t w0,
                            uint64_t w0q, uint64_t w1, uint64_t w1q,
                            uint64_t wb, uint64_t wbq, size_t p, size_t h)
{
    const size_t h2 = h / 2;
    const uint64_t z0 = src[4 * p], z1 = src[4 * p + 1];
    const uint64_t z2 = src[4 * p + 2], z3 = src[4 * p + 3];
    const uint64_t ta = mod.mulModShoup(z1, wb, wbq);
    uint64_t t = z0 + ta;
    const uint64_t y0 = t >= q2 ? t - q2 : t;
    t = z0 + q2 - ta;
    const uint64_t yh0 = t >= q2 ? t - q2 : t;
    const uint64_t tb = mod.mulModShoup(z3, wb, wbq);
    t = z2 + tb;
    const uint64_t y1 = t >= q2 ? t - q2 : t;
    t = z2 + q2 - tb;
    const uint64_t yh1 = t >= q2 ? t - q2 : t;
    const uint64_t t0 = mod.mulModShoup(y1, w0, w0q);
    t = y0 + t0;
    dst[p] = t >= q2 ? t - q2 : t;
    t = y0 + q2 - t0;
    dst[p + h] = t >= q2 ? t - q2 : t;
    const uint64_t t1 = mod.mulModShoup(yh1, w1, w1q);
    t = yh0 + t1;
    dst[p + h2] = t >= q2 ? t - q2 : t;
    t = yh0 + q2 - t1;
    dst[p + h + h2] = t >= q2 ? t - q2 : t;
}

/** Index-computing wrapper (SIMD tail loops). */
inline void
inverseButterfly64Lazy4(const Modulus64& mod, uint64_t q2,
                        const uint64_t* src, uint64_t* dst,
                        const uint64_t* tw, const uint64_t* twq, size_t p,
                        size_t h, int s_lo)
{
    const size_t e0 = Ntt64Plan::stageTwiddleIndex(s_lo, p);
    const size_t e1 = e0 + h / 2;
    const size_t eb = Ntt64Plan::stageTwiddlePair(s_lo, p);
    inverseButterfly64Lazy4Core(mod, q2, src, dst, tw[e0], twq[e0], tw[e1],
                                twq[e1], tw[eb], twq[eb], p, h);
}

/**
 * Forward Pease stage loop with fused radix-4 passes: ceil(logn/2)
 * sweeps (radix-2 pass first when logn is odd). Bit-identical to
 * forward64LazyImpl.
 */
template <class Isa>
void
forward64Lazy4Impl(const Ntt64Plan& plan, const uint64_t* in, uint64_t* out,
                   uint64_t* scratch)
{
    const size_t h = plan.half();
    const size_t h2 = h / 2;
    const int m = plan.logn();
    const Modulus64& mod = plan.modulus();
    Ctx64<Isa> ctx = makeCtx64<Isa>(mod);
    const uint64_t q = mod.value();
    const uint64_t q2 = 2 * q;
    const uint64_t* tw = plan.twiddle();
    const uint64_t* twq = plan.twiddleShoup();

    uint64_t* bufs[2] = {out, scratch};
    const int passes = (m + 1) / 2;
    int target = (passes % 2 == 1) ? 0 : 1;
    const uint64_t* src = in;
    int s = 0;
    if (m % 2 == 1) {
        forwardStage64<Isa>(plan, src, bufs[target], 0, m == 1);
        src = bufs[target];
        target ^= 1;
        s = 1;
    }
    for (; s + 1 < m; s += 2) {
        const bool last = s + 2 == m;
        uint64_t* dst = bufs[target];
        size_t p = 0;
        for (; p + Isa::kLanes <= h2; p += Isa::kLanes) {
            auto a = Isa::loadu(src + p);
            auto b = Isa::loadu(src + p + h2);
            auto c = Isa::loadu(src + p + h);
            auto d = Isa::loadu(src + p + h + h2);
            auto w0 = loadStageTwiddles64<Isa>(tw, p, s);
            auto w0q = loadStageTwiddles64<Isa>(twq, p, s);
            auto w1 = loadStageTwiddles64<Isa>(tw + h2, p, s);
            auto w1q = loadStageTwiddles64<Isa>(twq + h2, p, s);
            auto wb = loadStageTwiddles64Pair<Isa>(tw, p, s);
            auto wbq = loadStageTwiddles64Pair<Isa>(twq, p, s);
            auto u0 = addMod64LazyV<Isa>(ctx, a, c);
            auto v0 = mulMod64ShoupV<Isa>(
                ctx, subMod64LazyRawV<Isa>(ctx, a, c), w0, w0q);
            auto u1 = addMod64LazyV<Isa>(ctx, b, d);
            auto v1 = mulMod64ShoupV<Isa>(
                ctx, subMod64LazyRawV<Isa>(ctx, b, d), w1, w1q);
            auto z0 = addMod64LazyV<Isa>(ctx, u0, u1);
            auto z1 = mulMod64ShoupV<Isa>(
                ctx, subMod64LazyRawV<Isa>(ctx, u0, u1), wb, wbq);
            auto z2 = addMod64LazyV<Isa>(ctx, v0, v1);
            auto z3 = mulMod64ShoupV<Isa>(
                ctx, subMod64LazyRawV<Isa>(ctx, v0, v1), wb, wbq);
            if (last) {
                z0 = condSub64V<Isa>(z0, ctx.q);
                z1 = condSub64V<Isa>(z1, ctx.q);
                z2 = condSub64V<Isa>(z2, ctx.q);
                z3 = condSub64V<Isa>(z3, ctx.q);
            }
            typename Isa::V o0, o1, o2, o3;
            interleave64x4<Isa>(z0, z1, z2, z3, o0, o1, o2, o3);
            Isa::storeu(dst + 4 * p, o0);
            Isa::storeu(dst + 4 * p + Isa::kLanes, o1);
            Isa::storeu(dst + 4 * p + 2 * Isa::kLanes, o2);
            Isa::storeu(dst + 4 * p + 3 * Isa::kLanes, o3);
        }
        for (; p < h2; ++p)
            forwardButterfly64Lazy4(mod, q, q2, src, dst, tw, twq, p, h, s,
                                    last);
        src = dst;
        target ^= 1;
    }
}

/**
 * Inverse Pease stage loop with fused radix-4 passes, plus the fused
 * n^-1 scaling. Bit-identical to inverse64LazyImpl.
 */
template <class Isa>
void
inverse64Lazy4Impl(const Ntt64Plan& plan, const uint64_t* in, uint64_t* out,
                   uint64_t* scratch)
{
    const size_t h = plan.half();
    const size_t h2 = h / 2;
    const int m = plan.logn();
    const Modulus64& mod = plan.modulus();
    Ctx64<Isa> ctx = makeCtx64<Isa>(mod);
    const uint64_t q2 = 2 * mod.value();
    const uint64_t* tw = plan.twiddleInv();
    const uint64_t* twq = plan.twiddleInvShoup();

    uint64_t* bufs[2] = {out, scratch};
    const int passes = (m + 1) / 2;
    int target = (passes % 2 == 1) ? 0 : 1;
    const uint64_t* src = in;
    int s = m - 1;
    for (; s >= 1; s -= 2) {
        const int sl = s - 1;
        uint64_t* dst = bufs[target];
        size_t p = 0;
        for (; p + Isa::kLanes <= h2; p += Isa::kLanes) {
            auto i0 = Isa::loadu(src + 4 * p);
            auto i1 = Isa::loadu(src + 4 * p + Isa::kLanes);
            auto i2 = Isa::loadu(src + 4 * p + 2 * Isa::kLanes);
            auto i3 = Isa::loadu(src + 4 * p + 3 * Isa::kLanes);
            typename Isa::V z0, z1, z2, z3;
            deinterleave64x4<Isa>(i0, i1, i2, i3, z0, z1, z2, z3);
            auto wb = loadStageTwiddles64Pair<Isa>(tw, p, sl);
            auto wbq = loadStageTwiddles64Pair<Isa>(twq, p, sl);
            auto ta = mulMod64ShoupV<Isa>(ctx, z1, wb, wbq);
            auto y0 = addMod64LazyV<Isa>(ctx, z0, ta);
            auto yh0 = condSub64V<Isa>(subMod64LazyRawV<Isa>(ctx, z0, ta),
                                       ctx.q2);
            auto tb = mulMod64ShoupV<Isa>(ctx, z3, wb, wbq);
            auto y1 = addMod64LazyV<Isa>(ctx, z2, tb);
            auto yh1 = condSub64V<Isa>(subMod64LazyRawV<Isa>(ctx, z2, tb),
                                       ctx.q2);
            auto w0 = loadStageTwiddles64<Isa>(tw, p, sl);
            auto w0q = loadStageTwiddles64<Isa>(twq, p, sl);
            auto w1 = loadStageTwiddles64<Isa>(tw + h2, p, sl);
            auto w1q = loadStageTwiddles64<Isa>(twq + h2, p, sl);
            auto t0 = mulMod64ShoupV<Isa>(ctx, y1, w0, w0q);
            Isa::storeu(dst + p, addMod64LazyV<Isa>(ctx, y0, t0));
            Isa::storeu(dst + p + h,
                        condSub64V<Isa>(subMod64LazyRawV<Isa>(ctx, y0, t0),
                                        ctx.q2));
            auto t1 = mulMod64ShoupV<Isa>(ctx, yh1, w1, w1q);
            Isa::storeu(dst + p + h2, addMod64LazyV<Isa>(ctx, yh0, t1));
            Isa::storeu(dst + p + h + h2,
                        condSub64V<Isa>(subMod64LazyRawV<Isa>(ctx, yh0, t1),
                                        ctx.q2));
        }
        for (; p < h2; ++p)
            inverseButterfly64Lazy4(mod, q2, src, dst, tw, twq, p, h, sl);
        src = dst;
        target ^= 1;
    }
    if (s == 0)
        inverseStage64<Isa>(plan, src, bufs[target], 0);
    scaleNInv64<Isa>(plan, out);
}

} // namespace w64
} // namespace mqx
