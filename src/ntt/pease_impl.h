/**
 * @file
 * The Pease constant-geometry NTT, templated over a SIMD ISA policy.
 *
 * Forward stage s (of log2 n), butterfly j in [0, n/2):
 *     u = x[j] + x[j + n/2]
 *     v = (x[j] - x[j + n/2]) * w[s][j],  w[s][j] = omega^((j >> s) << s)
 *     y[2j] = u;  y[2j+1] = v
 *
 * Reads are contiguous at stride n/2, writes are the perfect shuffle —
 * in SIMD the two result vectors are interleaved with
 * unpack/permutex2var-style shuffles (paper Section 3.2) and stored as
 * two contiguous blocks. Output ends up in bit-reversed order.
 *
 * The inverse runs the transposed stages in reverse order with inverse
 * twiddles (reads interleaved pairs, writes strided halves) and applies
 * one final scaling pass by n^-1; it consumes the forward's bit-reversed
 * output and restores natural order.
 *
 * Two arithmetic strategies share the stage wiring (Reduction knob):
 *
 *  - Barrett: canonical [0, q) operands, full Eq.-4 reduction per
 *    butterfly multiply. The paper's original kernels; kept as the
 *    ablation baseline and cross-check oracle.
 *  - ShoupLazy (default): Harvey lazy butterflies. Operands live in
 *    [0, 2q) between stages (q < 2^124 leaves 4 bits of double-word
 *    headroom, so transients reach 4q safely), the twiddle multiply is
 *    the Shoup precomputed-quotient form with a [0, 2q) result and no
 *    correction subtractions, and canonicalization to [0, q) happens
 *    once — fused into the last forward stage, or into the inverse's
 *    n^-1 scaling pass. Bit-identical to Barrett after that pass.
 *
 * Twiddles come from the plan's compact shared power tables; stage s
 * addresses them as pow[(j >> s) << s] via loadStageTwiddles(): a
 * contiguous load at stage 0, a short step load while the run length
 * 2^s is below the lane count, and a single broadcast afterwards —
 * ~logn/2x less twiddle traffic than the old stretched tables.
 *
 * The merged negacyclic kernels (end of this file; math and table
 * layout in ntt/negacyclic.h) share the stage wiring but not the
 * butterflies: the forward runs a Harvey Cooley-Tukey butterfly with
 * psi folded into per-level twiddles, values in [0, 4q) between stages;
 * the inverse runs a Gentleman-Sande butterfly with n^-1 folded into
 * its last stage. They are instantiated in their own negacyclic_*.cc
 * TUs, apart from the cyclic ntt_*.cc ones.
 *
 * Out-of-place ping-pong: the caller provides `out` and `scratch`
 * buffers; the stage parity is arranged so the final stage always lands
 * in `out`. Neither may alias the input (any hi/lo storage overlap,
 * including lo-lo and mixed hi-lo, is rejected).
 */
#pragma once

#include <cstdio>

#include "core/batch_layout.h"
#include "core/prefetch.h"
#include "mod/range_checked.h"
#include "ntt/negacyclic.h"
#include "ntt/plan.h"
#include "simd/dw_kernels.h"

namespace mqx {
namespace ntt {

namespace detail {

/**
 * Stage-s twiddle gather from a compact power table: butterfly j uses
 * entry (j >> s) << s, so a vector of kLanes consecutive butterflies
 * needs a contiguous load (s == 0), a step load repeating each entry
 * 2^s times (0 < 2^s < kLanes — only the first log2(kLanes) stages),
 * or one broadcast (2^s >= kLanes).
 */
template <class Isa>
inline simd::DV<Isa>
loadStageTwiddles(const uint64_t* hi, const uint64_t* lo, size_t j, int s)
{
    if (s == 0)
        return simd::loadDv<Isa>(hi, lo, j);
    if ((size_t{1} << s) >= Isa::kLanes) {
        size_t e = (j >> s) << s;
        return simd::DV<Isa>{Isa::set1(hi[e]), Isa::set1(lo[e])};
    }
    alignas(64) uint64_t th[Isa::kLanes];
    alignas(64) uint64_t tl[Isa::kLanes];
    for (size_t i = 0; i < Isa::kLanes; ++i) {
        size_t e = ((j + i) >> s) << s;
        th[i] = hi[e];
        tl[i] = lo[e];
    }
    return simd::loadDv<Isa>(th, tl, 0);
}

/**
 * Second-layer twiddle load for the fused radix-4 pass over stage pair
 * (s, s+1): butterfly p needs pow[stageTwiddlePair(s, p)] =
 * pow[2*((p >> s) << s)]. A stride-2 gather at stage 0, a short step
 * gather while the run length 2^s is under the lane count, one
 * broadcast afterwards — the same three shapes as the first layer.
 */
template <class Isa>
inline simd::DV<Isa>
loadStageTwiddlesPair(const uint64_t* hi, const uint64_t* lo, size_t p, int s)
{
    if ((size_t{1} << s) >= Isa::kLanes) {
        size_t e = NttPlan::stageTwiddlePair(s, p);
        return simd::DV<Isa>{Isa::set1(hi[e]), Isa::set1(lo[e])};
    }
    alignas(64) uint64_t th[Isa::kLanes];
    alignas(64) uint64_t tl[Isa::kLanes];
    for (size_t i = 0; i < Isa::kLanes; ++i) {
        size_t e = NttPlan::stageTwiddlePair(s, p + i);
        th[i] = hi[e];
        tl[i] = lo[e];
    }
    return simd::loadDv<Isa>(th, tl, 0);
}

/**
 * Stage-s Shoup twiddles (w, wq) of butterfly j as one simd::ShoupW:
 * loadStageTwiddles (loadStageTwiddlesPair when kPair) over the power
 * table and its Shoup companion. On IFMA ISAs a broadcast run
 * (2^s >= kLanes) is split into 52-bit limbs once per run rather than
 * once per vector; other ISAs load exactly as before.
 */
template <class Isa, bool kPair = false>
class StageShoup
{
  public:
    StageShoup(const uint64_t* hi, const uint64_t* lo, const uint64_t* qhi,
               const uint64_t* qlo, int s)
        : hi_(hi), lo_(lo), qhi_(qhi), qlo_(qlo), s_(s),
          broadcast_((size_t{1} << s) >= Isa::kLanes)
    {
    }

    simd::ShoupW<Isa>
    at(size_t j)
    {
        if constexpr (Isa::kHasIfma) {
            if (broadcast_) {
                const size_t e = kPair ? NttPlan::stageTwiddlePair(s_, j)
                                       : NttPlan::stageTwiddleIndex(s_, j);
                if (e != run_) {
                    run_ = e;
                    cur_ = simd::broadcastShoupW<Isa>(hi_[e], lo_[e],
                                                      qhi_[e], qlo_[e]);
                }
                return cur_;
            }
        }
        if constexpr (kPair)
            return simd::makeShoupW<Isa>(
                loadStageTwiddlesPair<Isa>(hi_, lo_, j, s_),
                loadStageTwiddlesPair<Isa>(qhi_, qlo_, j, s_));
        else
            return simd::makeShoupW<Isa>(
                loadStageTwiddles<Isa>(hi_, lo_, j, s_),
                loadStageTwiddles<Isa>(qhi_, qlo_, j, s_));
    }

  private:
    const uint64_t* hi_;
    const uint64_t* lo_;
    const uint64_t* qhi_;
    const uint64_t* qlo_;
    int s_;
    bool broadcast_;
    size_t run_ = ~size_t{0};
    simd::ShoupW<Isa> cur_{};
};

/**
 * 4-way interleave built from two rounds of the ISA's interleave2:
 * lane p of (z0, z1, z2, z3) lands at memory positions 4p .. 4p+3 of
 * the concatenated outputs (o0, o1, o2, o3) — the fused radix-4 store
 * wiring y[4p+i] = zi.
 */
template <class Isa>
inline void
interleave4(typename Isa::V z0, typename Isa::V z1, typename Isa::V z2,
            typename Isa::V z3, typename Isa::V& o0, typename Isa::V& o1,
            typename Isa::V& o2, typename Isa::V& o3)
{
    typename Isa::V a0, a1, b0, b1;
    Isa::interleave2(z0, z2, a0, a1);
    Isa::interleave2(z1, z3, b0, b1);
    Isa::interleave2(a0, b0, o0, o1);
    Isa::interleave2(a1, b1, o2, o3);
}

/** Exact inverse of interleave4 (the fused radix-4 inverse load). */
template <class Isa>
inline void
deinterleave4(typename Isa::V o0, typename Isa::V o1, typename Isa::V o2,
              typename Isa::V o3, typename Isa::V& z0, typename Isa::V& z1,
              typename Isa::V& z2, typename Isa::V& z3)
{
    typename Isa::V a0, a1, b0, b1;
    Isa::deinterleave2(o0, o1, a0, b0);
    Isa::deinterleave2(o2, o3, a1, b1);
    Isa::deinterleave2(a0, a1, z0, z2);
    Isa::deinterleave2(b0, b1, z1, z3);
}

/** Scalar butterfly tail shared by every backend (Barrett path). */
inline void
forwardButterflyScalar(const mod::Barrett<uint64_t>& br,
                       const mod::DW<uint64_t>& q, const uint64_t* src_hi,
                       const uint64_t* src_lo, uint64_t* dst_hi,
                       uint64_t* dst_lo, const uint64_t* tw_hi,
                       const uint64_t* tw_lo, size_t j, size_t h, int s,
                       MulAlgo algo)
{
    size_t e = NttPlan::stageTwiddleIndex(s, j);
    mod::DW<uint64_t> a{src_hi[j], src_lo[j]};
    mod::DW<uint64_t> b{src_hi[j + h], src_lo[j + h]};
    mod::DW<uint64_t> w{tw_hi[e], tw_lo[e]};
    auto u = mod::addMod(a, b, q);
    auto d = mod::subMod(a, b, q);
    auto v = algo == MulAlgo::Schoolbook ? mod::mulModSchool(d, w, br)
                                         : mod::mulModKaratsuba(d, w, br);
    dst_hi[2 * j] = u.hi;
    dst_lo[2 * j] = u.lo;
    dst_hi[2 * j + 1] = v.hi;
    dst_lo[2 * j + 1] = v.lo;
}

inline void
inverseButterflyScalar(const mod::Barrett<uint64_t>& br,
                       const mod::DW<uint64_t>& q, const uint64_t* src_hi,
                       const uint64_t* src_lo, uint64_t* dst_hi,
                       uint64_t* dst_lo, const uint64_t* tw_hi,
                       const uint64_t* tw_lo, size_t j, size_t h, int s,
                       MulAlgo algo)
{
    size_t e = NttPlan::stageTwiddleIndex(s, j);
    mod::DW<uint64_t> u{src_hi[2 * j], src_lo[2 * j]};
    mod::DW<uint64_t> v{src_hi[2 * j + 1], src_lo[2 * j + 1]};
    mod::DW<uint64_t> w{tw_hi[e], tw_lo[e]};
    auto t = algo == MulAlgo::Schoolbook ? mod::mulModSchool(v, w, br)
                                         : mod::mulModKaratsuba(v, w, br);
    auto x0 = mod::addMod(u, t, q);
    auto x1 = mod::subMod(u, t, q);
    dst_hi[j] = x0.hi;
    dst_lo[j] = x0.lo;
    dst_hi[j + h] = x1.hi;
    dst_lo[j + h] = x1.lo;
}

/**
 * Scalar lazy forward butterfly: [0,2q) in, [0,2q) out (canonical when
 * @p last — the fused final-stage canonicalization).
 *
 * Templated over the range-contract arithmetic policy
 * (mod/range_checked.h): the default instantiation is the production
 * unchecked arithmetic (or the checked algebra under MQX_RANGE_AUDIT);
 * the contract tests instantiate mod::CheckedLazyOps explicitly. All
 * policies share this one source, so the checked kernels are
 * bit-identical to the unchecked ones by construction.
 */
template <class A = mod::DefaultLazyOps>
inline void
forwardButterflyLazyScalar(const mod::DW<uint64_t>& q,
                           const mod::DW<uint64_t>& q2,
                           const uint64_t* src_hi, const uint64_t* src_lo,
                           uint64_t* dst_hi, uint64_t* dst_lo,
                           const uint64_t* tw_hi, const uint64_t* tw_lo,
                           const uint64_t* twq_hi, const uint64_t* twq_lo,
                           size_t j, size_t h, int s, bool last,
                           MulAlgo algo)
{
    size_t e = NttPlan::stageTwiddleIndex(s, j);
    auto a = A::load2q(src_hi, src_lo, j, q);
    auto b = A::load2q(src_hi, src_lo, j + h, q);
    auto w = A::twiddle(mod::DW<uint64_t>{tw_hi[e], tw_lo[e]}, q);
    const mod::DW<uint64_t> wq{twq_hi[e], twq_lo[e]};
    auto u = A::condSub2q(A::add(a, b, q), q2, q);       // [0, 2q)
    auto v = A::mulShoup(A::subRaw(a, b, q2, q),         // a - b + 2q < 4q
                         w, wq, q, algo);                // [0, 2q)
    if (last) {
        A::store(dst_hi, dst_lo, 2 * j, A::canon(u, q));
        A::store(dst_hi, dst_lo, 2 * j + 1, A::canon(v, q));
    } else {
        A::store(dst_hi, dst_lo, 2 * j, u);
        A::store(dst_hi, dst_lo, 2 * j + 1, v);
    }
}

/** Scalar lazy inverse butterfly: [0,2q) in, [0,2q) out. Policy-
 *  templated like forwardButterflyLazyScalar. */
template <class A = mod::DefaultLazyOps>
inline void
inverseButterflyLazyScalar(const mod::DW<uint64_t>& q,
                           const mod::DW<uint64_t>& q2,
                           const uint64_t* src_hi, const uint64_t* src_lo,
                           uint64_t* dst_hi, uint64_t* dst_lo,
                           const uint64_t* tw_hi, const uint64_t* tw_lo,
                           const uint64_t* twq_hi, const uint64_t* twq_lo,
                           size_t j, size_t h, int s, MulAlgo algo)
{
    size_t e = NttPlan::stageTwiddleIndex(s, j);
    auto u = A::load2q(src_hi, src_lo, 2 * j, q);
    auto v = A::load2q(src_hi, src_lo, 2 * j + 1, q);
    auto w = A::twiddle(mod::DW<uint64_t>{tw_hi[e], tw_lo[e]}, q);
    const mod::DW<uint64_t> wq{twq_hi[e], twq_lo[e]};
    auto t = A::mulShoup(v, w, wq, q, algo);             // [0, 2q)
    auto x0 = A::condSub2q(A::add(u, t, q), q2, q);      // [0, 2q)
    auto x1 = A::condSub2q(A::subRaw(u, t, q2, q), q2, q);
    A::store(dst_hi, dst_lo, j, x0);
    A::store(dst_hi, dst_lo, j + h, x1);
}

/**
 * Twiddle-valued core of the fused forward butterfly p: reads x[p],
 * x[p+h/2], x[p+h], x[p+3h/2], applies both radix-2 layers in registers
 * with EXACTLY the arithmetic of two consecutive
 * forwardButterflyLazyScalar stages (bit-identical to the radix-2
 * path), and writes y[4p .. 4p+3]. [0, 2q) in/out, transients < 4q;
 * canonical outputs when @p last. Callers that know a run of
 * butterflies shares its three twiddles (run length 2^s) hoist the
 * loads out of the loop — the compiler cannot, because the dst stores
 * may alias the twiddle tables as far as it knows.
 */
template <class A = mod::DefaultLazyOps>
inline void
forwardButterfly4LazyCore(const mod::DW<uint64_t>& q,
                          const mod::DW<uint64_t>& q2,
                          const uint64_t* MQX_RESTRICT src_hi,
                          const uint64_t* MQX_RESTRICT src_lo,
                          uint64_t* MQX_RESTRICT dst_hi,
                          uint64_t* MQX_RESTRICT dst_lo,
                          const mod::DW<uint64_t>& w0,
                          const mod::DW<uint64_t>& w0q,
                          const mod::DW<uint64_t>& w1,
                          const mod::DW<uint64_t>& w1q,
                          const mod::DW<uint64_t>& wb,
                          const mod::DW<uint64_t>& wbq, size_t p, size_t h,
                          bool last, MulAlgo algo)
{
    const size_t h2 = h / 2;
    auto a = A::load2q(src_hi, src_lo, p, q);
    auto b = A::load2q(src_hi, src_lo, p + h2, q);
    auto c = A::load2q(src_hi, src_lo, p + h, q);
    auto d = A::load2q(src_hi, src_lo, p + h + h2, q);
    auto tw0 = A::twiddle(w0, q);
    auto tw1 = A::twiddle(w1, q);
    auto twb = A::twiddle(wb, q);
    // First layer (stage s): butterflies p and p + h/2.
    auto u0 = A::condSub2q(A::add(a, c, q), q2, q);
    auto v0 = A::mulShoup(A::subRaw(a, c, q2, q), tw0, w0q, q, algo);
    auto u1 = A::condSub2q(A::add(b, d, q), q2, q);
    auto v1 = A::mulShoup(A::subRaw(b, d, q2, q), tw1, w1q, q, algo);
    // Second layer (stage s+1): butterflies 2p and 2p+1 share pow[eb].
    auto z0 = A::condSub2q(A::add(u0, u1, q), q2, q);
    auto z1 = A::mulShoup(A::subRaw(u0, u1, q2, q), twb, wbq, q, algo);
    auto z2 = A::condSub2q(A::add(v0, v1, q), q2, q);
    auto z3 = A::mulShoup(A::subRaw(v0, v1, q2, q), twb, wbq, q, algo);
    if (last) {
        A::store(dst_hi, dst_lo, 4 * p, A::canon(z0, q));
        A::store(dst_hi, dst_lo, 4 * p + 1, A::canon(z1, q));
        A::store(dst_hi, dst_lo, 4 * p + 2, A::canon(z2, q));
        A::store(dst_hi, dst_lo, 4 * p + 3, A::canon(z3, q));
    } else {
        A::store(dst_hi, dst_lo, 4 * p, z0);
        A::store(dst_hi, dst_lo, 4 * p + 1, z1);
        A::store(dst_hi, dst_lo, 4 * p + 2, z2);
        A::store(dst_hi, dst_lo, 4 * p + 3, z3);
    }
}

/**
 * Scalar fused radix-4 forward butterfly p of stage pair (s, s+1):
 * index computation + twiddle loads + the core above. Used by the SIMD
 * kernels' tail loops (where runs may straddle the vector remainder).
 */
inline void
forwardButterfly4LazyScalar(const mod::DW<uint64_t>& q,
                            const mod::DW<uint64_t>& q2,
                            const uint64_t* src_hi, const uint64_t* src_lo,
                            uint64_t* dst_hi, uint64_t* dst_lo,
                            const uint64_t* tw_hi, const uint64_t* tw_lo,
                            const uint64_t* twq_hi, const uint64_t* twq_lo,
                            size_t p, size_t h, int s, bool last,
                            MulAlgo algo)
{
    const size_t h2 = h / 2;
    const size_t e0 = NttPlan::stageTwiddleIndex(s, p);
    const size_t e1 = e0 + h2;
    const size_t eb = NttPlan::stageTwiddlePair(s, p);
    mod::DW<uint64_t> w0{tw_hi[e0], tw_lo[e0]}, w0q{twq_hi[e0], twq_lo[e0]};
    mod::DW<uint64_t> w1{tw_hi[e1], tw_lo[e1]}, w1q{twq_hi[e1], twq_lo[e1]};
    mod::DW<uint64_t> wb{tw_hi[eb], tw_lo[eb]}, wbq{twq_hi[eb], twq_lo[eb]};
    forwardButterfly4LazyCore(q, q2, src_hi, src_lo, dst_hi, dst_lo, w0, w0q,
                              w1, w1q, wb, wbq, p, h, last, algo);
}

/** Twiddle-valued core of the fused inverse butterfly (see forward). */
template <class A = mod::DefaultLazyOps>
inline void
inverseButterfly4LazyCore(const mod::DW<uint64_t>& q,
                          const mod::DW<uint64_t>& q2,
                          const uint64_t* MQX_RESTRICT src_hi,
                          const uint64_t* MQX_RESTRICT src_lo,
                          uint64_t* MQX_RESTRICT dst_hi,
                          uint64_t* MQX_RESTRICT dst_lo,
                          const mod::DW<uint64_t>& w0,
                          const mod::DW<uint64_t>& w0q,
                          const mod::DW<uint64_t>& w1,
                          const mod::DW<uint64_t>& w1q,
                          const mod::DW<uint64_t>& wb,
                          const mod::DW<uint64_t>& wbq, size_t p, size_t h,
                          MulAlgo algo)
{
    const size_t h2 = h / 2;
    auto z0 = A::load2q(src_hi, src_lo, 4 * p, q);
    auto z1 = A::load2q(src_hi, src_lo, 4 * p + 1, q);
    auto z2 = A::load2q(src_hi, src_lo, 4 * p + 2, q);
    auto z3 = A::load2q(src_hi, src_lo, 4 * p + 3, q);
    auto tw0 = A::twiddle(w0, q);
    auto tw1 = A::twiddle(w1, q);
    auto twb = A::twiddle(wb, q);
    // First layer (inverse stage s_lo + 1): butterflies 2p and 2p+1.
    auto ta = A::mulShoup(z1, twb, wbq, q, algo);
    auto y0 = A::condSub2q(A::add(z0, ta, q), q2, q);
    auto yh0 = A::condSub2q(A::subRaw(z0, ta, q2, q), q2, q);
    auto tb = A::mulShoup(z3, twb, wbq, q, algo);
    auto y1 = A::condSub2q(A::add(z2, tb, q), q2, q);
    auto yh1 = A::condSub2q(A::subRaw(z2, tb, q2, q), q2, q);
    // Second layer (inverse stage s_lo): butterflies p and p + h/2.
    auto t0 = A::mulShoup(y1, tw0, w0q, q, algo);
    auto x0 = A::condSub2q(A::add(y0, t0, q), q2, q);
    auto x2 = A::condSub2q(A::subRaw(y0, t0, q2, q), q2, q);
    auto t1 = A::mulShoup(yh1, tw1, w1q, q, algo);
    auto x1 = A::condSub2q(A::add(yh0, t1, q), q2, q);
    auto x3 = A::condSub2q(A::subRaw(yh0, t1, q2, q), q2, q);
    A::store(dst_hi, dst_lo, p, x0);
    A::store(dst_hi, dst_lo, p + h2, x1);
    A::store(dst_hi, dst_lo, p + h, x2);
    A::store(dst_hi, dst_lo, p + h + h2, x3);
}

/**
 * Scalar fused radix-4 inverse butterfly p of the inverse stage pair
 * (s_lo + 1, s_lo): reads y[4p .. 4p+3], writes x[p], x[p+h/2],
 * x[p+h], x[p+3h/2]. Mirrors two consecutive inverseButterflyLazyScalar
 * stages exactly (bit-identical). @p tw/@p twq are the INVERSE tables.
 */
inline void
inverseButterfly4LazyScalar(const mod::DW<uint64_t>& q,
                            const mod::DW<uint64_t>& q2,
                            const uint64_t* src_hi, const uint64_t* src_lo,
                            uint64_t* dst_hi, uint64_t* dst_lo,
                            const uint64_t* tw_hi, const uint64_t* tw_lo,
                            const uint64_t* twq_hi, const uint64_t* twq_lo,
                            size_t p, size_t h, int s_lo, MulAlgo algo)
{
    const size_t h2 = h / 2;
    const size_t e0 = NttPlan::stageTwiddleIndex(s_lo, p);
    const size_t e1 = e0 + h2;
    const size_t eb = NttPlan::stageTwiddlePair(s_lo, p);
    mod::DW<uint64_t> w0{tw_hi[e0], tw_lo[e0]}, w0q{twq_hi[e0], twq_lo[e0]};
    mod::DW<uint64_t> w1{tw_hi[e1], tw_lo[e1]}, w1q{twq_hi[e1], twq_lo[e1]};
    mod::DW<uint64_t> wb{tw_hi[eb], tw_lo[eb]}, wbq{twq_hi[eb], twq_lo[eb]};
    inverseButterfly4LazyCore(q, q2, src_hi, src_lo, dst_hi, dst_lo, w0, w0q,
                              w1, w1q, wb, wbq, p, h, algo);
}

/**
 * One element of a canonicalizing Shoup multiply by a fixed canonical
 * multiplicand: dst[i] = src[i] * w mod q in [0, q), for src[i] in
 * [0, 2q) — the cyclic inverse NTT's fused n^-1 scaling pass. In-place
 * (dst == src) is legal. Policy-templated like the butterflies.
 */
template <class A = mod::DefaultLazyOps>
inline void
mulShoupCanonElementScalar(const mod::DW<uint64_t>& q,
                           const uint64_t* src_hi, const uint64_t* src_lo,
                           uint64_t* dst_hi, uint64_t* dst_lo,
                           const mod::DW<uint64_t>& w,
                           const mod::DW<uint64_t>& wq, size_t i,
                           MulAlgo algo)
{
    auto x = A::load2q(src_hi, src_lo, i, q);
    auto r = A::canon(A::mulShoup(x, A::twiddle(w, q), wq, q, algo), q);
    A::store(dst_hi, dst_lo, i, r);
}

/**
 * Merged negacyclic forward butterfly (Harvey Cooley-Tukey) at explicit
 * word indices: reads a = src[ia], b = src[ib] in [0, 4q), writes
 * a' + w*b to dst[io0] and a' - w*b + 2q to dst[io1], both in [0, 4q)
 * — canonical when @p last — where a' is a reduced to [0, 2q). @p w is
 * the stage twiddle, @p wq its Shoup companion. Policy-templated like
 * forwardButterflyLazyScalar; the per-channel (io = 2j, 2j + 1) and
 * batch (tiled indices) scalar kernels share it.
 */
template <class A = mod::DefaultLazyOps>
inline void
negacyclicForwardButterflyScalar(const mod::DW<uint64_t>& q,
                                 const mod::DW<uint64_t>& q2,
                                 const uint64_t* src_hi,
                                 const uint64_t* src_lo, uint64_t* dst_hi,
                                 uint64_t* dst_lo, const mod::DW<uint64_t>& w,
                                 const mod::DW<uint64_t>& wq, size_t ia,
                                 size_t ib, size_t io0, size_t io1, bool last,
                                 MulAlgo algo = MulAlgo::Schoolbook)
{
    // The product first: measured ~8% faster on the scalar backend than
    // reducing a first.
    auto t = A::mulShoup(A::load4q(src_hi, src_lo, ib, q), A::twiddle(w, q),
                         wq, q, algo);                          // [0, 2q)
    auto a = A::condSub2q(A::load4q(src_hi, src_lo, ia, q), q2, q); // [0, 2q)
    auto u = A::add(a, t, q);        // [0, 4q)
    auto v = A::subRaw(a, t, q2, q); // (0, 4q)
    if (last) {
        A::store(dst_hi, dst_lo, io0, A::canon(A::condSub2q(u, q2, q), q));
        A::store(dst_hi, dst_lo, io1, A::canon(A::condSub2q(v, q2, q), q));
    } else {
        A::store(dst_hi, dst_lo, io0, u);
        A::store(dst_hi, dst_lo, io1, v);
    }
}

/**
 * Merged negacyclic inverse butterfly (Gentleman-Sande) at explicit word
 * indices: reads u = src[i0], v = src[i1] in [0, 2q), writes u + v to
 * dst[io0] and (u - v) * w to dst[io1], both in [0, 2q).
 */
template <class A = mod::DefaultLazyOps>
inline void
negacyclicInverseButterflyScalar(const mod::DW<uint64_t>& q,
                                 const mod::DW<uint64_t>& q2,
                                 const uint64_t* src_hi,
                                 const uint64_t* src_lo, uint64_t* dst_hi,
                                 uint64_t* dst_lo, const mod::DW<uint64_t>& w,
                                 const mod::DW<uint64_t>& wq, size_t i0,
                                 size_t i1, size_t io0, size_t io1,
                                 MulAlgo algo = MulAlgo::Schoolbook)
{
    auto u = A::load2q(src_hi, src_lo, i0, q);
    auto v = A::load2q(src_hi, src_lo, i1, q);
    A::store(dst_hi, dst_lo, io0, A::condSub2q(A::add(u, v, q), q2, q));
    A::store(dst_hi, dst_lo, io1,
             A::mulShoup(A::subRaw(u, v, q2, q), A::twiddle(w, q), wq, q,
                         algo));
}

/**
 * The merged inverse's last-stage butterfly with n^-1 folded in: the sum
 * branch is multiplied by @p ninv (n^-1), the difference branch by @p w
 * (zeta^-1 * n^-1), and both leave canonical. [0, 2q) in.
 */
template <class A = mod::DefaultLazyOps>
inline void
negacyclicInverseLastButterflyScalar(
    const mod::DW<uint64_t>& q, const mod::DW<uint64_t>& q2,
    const uint64_t* src_hi, const uint64_t* src_lo, uint64_t* dst_hi,
    uint64_t* dst_lo, const mod::DW<uint64_t>& ninv,
    const mod::DW<uint64_t>& ninvq, const mod::DW<uint64_t>& w,
    const mod::DW<uint64_t>& wq, size_t i0, size_t i1, size_t io0,
    size_t io1, MulAlgo algo = MulAlgo::Schoolbook)
{
    auto u = A::load2q(src_hi, src_lo, i0, q);
    auto v = A::load2q(src_hi, src_lo, i1, q);
    A::store(dst_hi, dst_lo, io0,
             A::canon(A::mulShoup(A::add(u, v, q), A::twiddle(ninv, q),
                                  ninvq, q, algo),
                      q));
    A::store(dst_hi, dst_lo, io1,
             A::canon(A::mulShoup(A::subRaw(u, v, q2, q), A::twiddle(w, q),
                                  wq, q, algo),
                      q));
}

/** Merged-table entry of butterfly j at stage s: 2^s + (j mod 2^s). */
MQX_FORCE_INLINE size_t
negacyclicTwiddleIndex(int s, size_t j)
{
    const size_t base = size_t{1} << s;
    return base + (j & (base - 1));
}

/**
 * Cold half of validateNttArgs: formats the offending buffer geometry
 * (hi/lo base pointers and lengths, plus the plan's n) into the
 * exception message. Out of line and noinline so the per-transform hot
 * path pays only the comparisons, never the formatting.
 */
[[noreturn]] MQX_NO_INLINE inline void
failNttArgs(const char* reason, const NttPlan& plan, DConstSpan in,
            DConstSpan out, DConstSpan scratch)
{
    char buf[384];
    std::snprintf(buf, sizeof buf,
                  "%s (plan n=%zu; in hi=%p lo=%p n=%zu; "
                  "out hi=%p lo=%p n=%zu; scratch hi=%p lo=%p n=%zu)",
                  reason, plan.n(), static_cast<const void*>(in.hi),
                  static_cast<const void*>(in.lo), in.n,
                  static_cast<const void*>(out.hi),
                  static_cast<const void*>(out.lo), out.n,
                  static_cast<const void*>(scratch.hi),
                  static_cast<const void*>(scratch.lo), scratch.n);
    throw InvalidArgument(buf);
}

inline void
validateNttArgs(const NttPlan& plan, DConstSpan in, DSpan out, DSpan scratch)
{
    if (in.n != plan.n() || out.n != plan.n() || scratch.n != plan.n())
        failNttArgs("ntt: buffer sizes must equal the plan size", plan, in,
                    out, scratch);
    // The ping-pong is out-of-place: reject ANY storage sharing between
    // the three buffers — identical spans, aliased lo arrays, and mixed
    // hi/lo overlap included (the span-overlap contract of the SoA
    // layout, not just hi-pointer distinctness).
    auto overlaps = [](DConstSpan a, DConstSpan b) {
        return sameSpan(a, b) || spansPartiallyOverlap(a, b);
    };
    if (overlaps(in, out) || overlaps(in, scratch) || overlaps(out, scratch))
        failNttArgs(
            "ntt: in/out/scratch must be distinct, non-overlapping buffers",
            plan, in, out, scratch);
}

} // namespace detail

/** Forward Pease NTT, Barrett arithmetic (natural in, bit-reversed out). */
template <class Isa>
void
peaseForwardImpl(const NttPlan& plan, DConstSpan in, DSpan out, DSpan scratch,
                 MulAlgo algo = MulAlgo::Schoolbook)
{
    detail::validateNttArgs(plan, in, out, scratch);
    const size_t h = plan.half();
    const int m = plan.logn();
    const Modulus& mod = plan.modulus();
    simd::ModCtx<Isa> ctx = simd::makeModCtx<Isa>(mod);
    const auto& br = mod.barrett();
    const mod::DW<uint64_t> q = mod::toDw(mod.value());
    const uint64_t* tw_hi = plan.twiddleHi();
    const uint64_t* tw_lo = plan.twiddleLo();

    DSpan bufs[2] = {out, scratch};
    int target = (m % 2 == 1) ? 0 : 1;
    const uint64_t* src_hi = in.hi;
    const uint64_t* src_lo = in.lo;

    for (int s = 0; s < m; ++s) {
        DSpan dst = bufs[target];
        size_t j = 0;
        for (; j + Isa::kLanes <= h; j += Isa::kLanes) {
            auto a = simd::loadDv<Isa>(src_hi, src_lo, j);
            auto b = simd::loadDv<Isa>(src_hi, src_lo, j + h);
            auto w = detail::loadStageTwiddles<Isa>(tw_hi, tw_lo, j, s);
            auto u = simd::addModV<Isa>(ctx, a, b);
            auto v = simd::mulModV<Isa>(ctx, simd::subModV<Isa>(ctx, a, b),
                                        w, algo);
            typename Isa::V blk0, blk1;
            Isa::interleave2(u.hi, v.hi, blk0, blk1);
            Isa::storeu(dst.hi + 2 * j, blk0);
            Isa::storeu(dst.hi + 2 * j + Isa::kLanes, blk1);
            Isa::interleave2(u.lo, v.lo, blk0, blk1);
            Isa::storeu(dst.lo + 2 * j, blk0);
            Isa::storeu(dst.lo + 2 * j + Isa::kLanes, blk1);
        }
        for (; j < h; ++j) {
            detail::forwardButterflyScalar(br, q, src_hi, src_lo, dst.hi,
                                           dst.lo, tw_hi, tw_lo, j, h, s,
                                           algo);
        }
        src_hi = dst.hi;
        src_lo = dst.lo;
        target ^= 1;
    }
}

/** Inverse Pease NTT, Barrett arithmetic (bit-reversed in, natural out,
 *  scaled by n^-1). */
template <class Isa>
void
peaseInverseImpl(const NttPlan& plan, DConstSpan in, DSpan out, DSpan scratch,
                 MulAlgo algo = MulAlgo::Schoolbook)
{
    detail::validateNttArgs(plan, in, out, scratch);
    const size_t h = plan.half();
    const int m = plan.logn();
    const Modulus& mod = plan.modulus();
    simd::ModCtx<Isa> ctx = simd::makeModCtx<Isa>(mod);
    const auto& br = mod.barrett();
    const mod::DW<uint64_t> q = mod::toDw(mod.value());
    const uint64_t* tw_hi = plan.twiddleInvHi();
    const uint64_t* tw_lo = plan.twiddleInvLo();

    DSpan bufs[2] = {out, scratch};
    int target = (m % 2 == 1) ? 0 : 1;
    const uint64_t* src_hi = in.hi;
    const uint64_t* src_lo = in.lo;

    for (int s = m - 1; s >= 0; --s) {
        DSpan dst = bufs[target];
        size_t j = 0;
        for (; j + Isa::kLanes <= h; j += Isa::kLanes) {
            auto blk0h = Isa::loadu(src_hi + 2 * j);
            auto blk1h = Isa::loadu(src_hi + 2 * j + Isa::kLanes);
            auto blk0l = Isa::loadu(src_lo + 2 * j);
            auto blk1l = Isa::loadu(src_lo + 2 * j + Isa::kLanes);
            simd::DV<Isa> u, v;
            Isa::deinterleave2(blk0h, blk1h, u.hi, v.hi);
            Isa::deinterleave2(blk0l, blk1l, u.lo, v.lo);
            auto w = detail::loadStageTwiddles<Isa>(tw_hi, tw_lo, j, s);
            auto t = simd::mulModV<Isa>(ctx, v, w, algo);
            auto x0 = simd::addModV<Isa>(ctx, u, t);
            auto x1 = simd::subModV<Isa>(ctx, u, t);
            simd::storeDv<Isa>(dst.hi, dst.lo, j, x0);
            simd::storeDv<Isa>(dst.hi, dst.lo, j + h, x1);
        }
        for (; j < h; ++j) {
            detail::inverseButterflyScalar(br, q, src_hi, src_lo, dst.hi,
                                           dst.lo, tw_hi, tw_lo, j, h, s,
                                           algo);
        }
        src_hi = dst.hi;
        src_lo = dst.lo;
        target ^= 1;
    }

    // Final scaling by n^-1 (deferred from the per-stage halving).
    const U128 n_inv = plan.nInv();
    simd::DV<Isa> vninv{Isa::set1(n_inv.hi), Isa::set1(n_inv.lo)};
    size_t i = 0;
    for (; i + Isa::kLanes <= plan.n(); i += Isa::kLanes) {
        auto x = simd::loadDv<Isa>(out.hi, out.lo, i);
        simd::storeDv<Isa>(out.hi, out.lo, i,
                           simd::mulModV<Isa>(ctx, x, vninv, algo));
    }
    mod::DW<uint64_t> dn = mod::toDw(n_inv);
    for (; i < plan.n(); ++i) {
        mod::DW<uint64_t> x{out.hi[i], out.lo[i]};
        auto r = algo == MulAlgo::Schoolbook ? mod::mulModSchool(x, dn, br)
                                             : mod::mulModKaratsuba(x, dn, br);
        out.hi[i] = r.hi;
        out.lo[i] = r.lo;
    }
}

/**
 * Forward Pease NTT, Shoup-lazy arithmetic. Canonical [0, q) input,
 * canonical output (the last stage fuses the condSub-q pass); between
 * stages operands stay in the redundant [0, 2q) range and every twiddle
 * multiply is the Shoup precomputed-quotient form. Bit-identical to
 * peaseForwardImpl.
 */
template <class Isa>
void
peaseForwardLazyImpl(const NttPlan& plan, DConstSpan in, DSpan out,
                     DSpan scratch, MulAlgo algo = MulAlgo::Schoolbook)
{
    detail::validateNttArgs(plan, in, out, scratch);
    const size_t h = plan.half();
    const int m = plan.logn();
    const Modulus& mod = plan.modulus();
    simd::ModCtx<Isa> ctx = simd::makeModCtx<Isa>(mod);
    const mod::DW<uint64_t> q = mod::toDw(mod.value());
    const mod::DW<uint64_t> q2 = mod::shl1Dw(q);
    const uint64_t* tw_hi = plan.twiddleHi();
    const uint64_t* tw_lo = plan.twiddleLo();
    const uint64_t* twq_hi = plan.twiddleShoupHi();
    const uint64_t* twq_lo = plan.twiddleShoupLo();

    DSpan bufs[2] = {out, scratch};
    int target = (m % 2 == 1) ? 0 : 1;
    const uint64_t* src_hi = in.hi;
    const uint64_t* src_lo = in.lo;

    for (int s = 0; s < m; ++s) {
        const bool last = s == m - 1;
        DSpan dst = bufs[target];
        detail::StageShoup<Isa> tw(tw_hi, tw_lo, twq_hi, twq_lo, s);
        size_t j = 0;
        for (; j + Isa::kLanes <= h; j += Isa::kLanes) {
            auto a = simd::loadDv<Isa>(src_hi, src_lo, j);
            auto b = simd::loadDv<Isa>(src_hi, src_lo, j + h);
            auto u = simd::addModLazyV<Isa>(ctx, a, b);
            auto d = simd::subModLazyRawV<Isa>(ctx, a, b); // (0, 4q)
            auto v = simd::mulModShoupV<Isa>(ctx, d, tw.at(j), algo);
            if (last) {
                u = simd::condSubDwV<Isa>(ctx, u, ctx.qh, ctx.ql);
                v = simd::condSubDwV<Isa>(ctx, v, ctx.qh, ctx.ql);
            }
            typename Isa::V blk0, blk1;
            Isa::interleave2(u.hi, v.hi, blk0, blk1);
            Isa::storeu(dst.hi + 2 * j, blk0);
            Isa::storeu(dst.hi + 2 * j + Isa::kLanes, blk1);
            Isa::interleave2(u.lo, v.lo, blk0, blk1);
            Isa::storeu(dst.lo + 2 * j, blk0);
            Isa::storeu(dst.lo + 2 * j + Isa::kLanes, blk1);
        }
        for (; j < h; ++j) {
            detail::forwardButterflyLazyScalar(q, q2, src_hi, src_lo, dst.hi,
                                               dst.lo, tw_hi, tw_lo, twq_hi,
                                               twq_lo, j, h, s, last, algo);
        }
        src_hi = dst.hi;
        src_lo = dst.lo;
        target ^= 1;
    }
}

/**
 * Inverse Pease NTT, Shoup-lazy arithmetic. Canonical input, canonical
 * output; canonicalization is fused into the n^-1 scaling pass (itself
 * a Shoup multiply against the plan's nInvShoup companion).
 * Bit-identical to peaseInverseImpl.
 */
template <class Isa>
void
peaseInverseLazyImpl(const NttPlan& plan, DConstSpan in, DSpan out,
                     DSpan scratch, MulAlgo algo = MulAlgo::Schoolbook)
{
    detail::validateNttArgs(plan, in, out, scratch);
    const size_t h = plan.half();
    const int m = plan.logn();
    const Modulus& mod = plan.modulus();
    simd::ModCtx<Isa> ctx = simd::makeModCtx<Isa>(mod);
    const mod::DW<uint64_t> q = mod::toDw(mod.value());
    const mod::DW<uint64_t> q2 = mod::shl1Dw(q);
    const uint64_t* tw_hi = plan.twiddleInvHi();
    const uint64_t* tw_lo = plan.twiddleInvLo();
    const uint64_t* twq_hi = plan.twiddleInvShoupHi();
    const uint64_t* twq_lo = plan.twiddleInvShoupLo();

    DSpan bufs[2] = {out, scratch};
    int target = (m % 2 == 1) ? 0 : 1;
    const uint64_t* src_hi = in.hi;
    const uint64_t* src_lo = in.lo;

    for (int s = m - 1; s >= 0; --s) {
        DSpan dst = bufs[target];
        detail::StageShoup<Isa> tw(tw_hi, tw_lo, twq_hi, twq_lo, s);
        size_t j = 0;
        for (; j + Isa::kLanes <= h; j += Isa::kLanes) {
            auto blk0h = Isa::loadu(src_hi + 2 * j);
            auto blk1h = Isa::loadu(src_hi + 2 * j + Isa::kLanes);
            auto blk0l = Isa::loadu(src_lo + 2 * j);
            auto blk1l = Isa::loadu(src_lo + 2 * j + Isa::kLanes);
            simd::DV<Isa> u, v;
            Isa::deinterleave2(blk0h, blk1h, u.hi, v.hi);
            Isa::deinterleave2(blk0l, blk1l, u.lo, v.lo);
            auto t = simd::mulModShoupV<Isa>(ctx, v, tw.at(j), algo); // [0,2q)
            auto x0 = simd::addModLazyV<Isa>(ctx, u, t);
            auto x1 = simd::subModLazyV<Isa>(ctx, u, t);
            simd::storeDv<Isa>(dst.hi, dst.lo, j, x0);
            simd::storeDv<Isa>(dst.hi, dst.lo, j + h, x1);
        }
        for (; j < h; ++j) {
            detail::inverseButterflyLazyScalar(q, q2, src_hi, src_lo, dst.hi,
                                               dst.lo, tw_hi, tw_lo, twq_hi,
                                               twq_lo, j, h, s, algo);
        }
        src_hi = dst.hi;
        src_lo = dst.lo;
        target ^= 1;
    }

    // Fused n^-1 scaling + canonicalization: one Shoup multiply into
    // [0, 2q) and one conditional subtract of q per element.
    const U128 n_inv = plan.nInv();
    const U128 n_inv_sh = plan.nInvShoup();
    const auto vninv = simd::broadcastShoupW<Isa>(n_inv.hi, n_inv.lo,
                                                  n_inv_sh.hi, n_inv_sh.lo);
    size_t i = 0;
    for (; i + Isa::kLanes <= plan.n(); i += Isa::kLanes) {
        auto x = simd::loadDv<Isa>(out.hi, out.lo, i);
        auto r = simd::mulModShoupV<Isa>(ctx, x, vninv, algo);
        r = simd::condSubDwV<Isa>(ctx, r, ctx.qh, ctx.ql);
        simd::storeDv<Isa>(out.hi, out.lo, i, r);
    }
    const mod::DW<uint64_t> dn = mod::toDw(n_inv);
    const mod::DW<uint64_t> dnq = mod::toDw(n_inv_sh);
    for (; i < plan.n(); ++i) {
        detail::mulShoupCanonElementScalar(q, out.hi, out.lo, out.hi, out.lo,
                                           dn, dnq, i, algo);
    }
}

/**
 * Forward Pease NTT with fused radix-4 passes, Shoup-lazy arithmetic.
 * Each pass loads the operands of TWO consecutive stages once, applies
 * both butterfly layers in registers, and stores once: ceil(logn/2)
 * ping-pong sweeps instead of logn (a single radix-2 pass runs first
 * when logn is odd). Arithmetic and ranges are exactly the radix-2 lazy
 * path's, so the output is bit-identical to peaseForwardLazyImpl (and
 * therefore to the Barrett path).
 */
template <class Isa>
void
peaseForward4LazyImpl(const NttPlan& plan, DConstSpan in, DSpan out,
                      DSpan scratch, MulAlgo algo = MulAlgo::Schoolbook)
{
    detail::validateNttArgs(plan, in, out, scratch);
    const size_t h = plan.half();
    const size_t h2 = h / 2;
    const int m = plan.logn();
    const Modulus& mod = plan.modulus();
    simd::ModCtx<Isa> ctx = simd::makeModCtx<Isa>(mod);
    const mod::DW<uint64_t> q = mod::toDw(mod.value());
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
        // Odd logn: one radix-2 stage first (stage 0), fused pairs after.
        const bool last = m == 1;
        DSpan dst = bufs[target];
        detail::StageShoup<Isa> tw(tw_hi, tw_lo, twq_hi, twq_lo, 0);
        size_t j = 0;
        for (; j + Isa::kLanes <= h; j += Isa::kLanes) {
            auto a = simd::loadDv<Isa>(src_hi, src_lo, j);
            auto b = simd::loadDv<Isa>(src_hi, src_lo, j + h);
            auto u = simd::addModLazyV<Isa>(ctx, a, b);
            auto dd = simd::subModLazyRawV<Isa>(ctx, a, b);
            auto v = simd::mulModShoupV<Isa>(ctx, dd, tw.at(j), algo);
            if (last) {
                u = simd::condSubDwV<Isa>(ctx, u, ctx.qh, ctx.ql);
                v = simd::condSubDwV<Isa>(ctx, v, ctx.qh, ctx.ql);
            }
            typename Isa::V blk0, blk1;
            Isa::interleave2(u.hi, v.hi, blk0, blk1);
            Isa::storeu(dst.hi + 2 * j, blk0);
            Isa::storeu(dst.hi + 2 * j + Isa::kLanes, blk1);
            Isa::interleave2(u.lo, v.lo, blk0, blk1);
            Isa::storeu(dst.lo + 2 * j, blk0);
            Isa::storeu(dst.lo + 2 * j + Isa::kLanes, blk1);
        }
        for (; j < h; ++j) {
            detail::forwardButterflyLazyScalar(q, q2, src_hi, src_lo, dst.hi,
                                               dst.lo, tw_hi, tw_lo, twq_hi,
                                               twq_lo, j, h, 0, last, algo);
        }
        src_hi = dst.hi;
        src_lo = dst.lo;
        target ^= 1;
        s = 1;
    }
    for (; s + 1 < m; s += 2) {
        const bool last = s + 2 == m;
        DSpan dst = bufs[target];
        detail::StageShoup<Isa> tw0(tw_hi, tw_lo, twq_hi, twq_lo, s);
        detail::StageShoup<Isa> tw1(tw_hi + h2, tw_lo + h2, twq_hi + h2,
                                    twq_lo + h2, s);
        detail::StageShoup<Isa, true> twb(tw_hi, tw_lo, twq_hi, twq_lo, s);
        size_t p = 0;
        for (; p + Isa::kLanes <= h2; p += Isa::kLanes) {
            // Live-range discipline: finish each first-layer butterfly
            // before loading the next one's operands — the fused body
            // otherwise overflows the vector register file.
            auto a = simd::loadDv<Isa>(src_hi, src_lo, p);
            auto c = simd::loadDv<Isa>(src_hi, src_lo, p + h);
            auto u0 = simd::addModLazyV<Isa>(ctx, a, c);
            auto v0 = simd::mulModShoupV<Isa>(
                ctx, simd::subModLazyRawV<Isa>(ctx, a, c), tw0.at(p), algo);
            auto b = simd::loadDv<Isa>(src_hi, src_lo, p + h2);
            auto d = simd::loadDv<Isa>(src_hi, src_lo, p + h + h2);
            auto u1 = simd::addModLazyV<Isa>(ctx, b, d);
            auto v1 = simd::mulModShoupV<Isa>(
                ctx, simd::subModLazyRawV<Isa>(ctx, b, d), tw1.at(p), algo);
            const auto wb = twb.at(p);
            auto z0 = simd::addModLazyV<Isa>(ctx, u0, u1);
            auto z1 = simd::mulModShoupV<Isa>(
                ctx, simd::subModLazyRawV<Isa>(ctx, u0, u1), wb, algo);
            auto z2 = simd::addModLazyV<Isa>(ctx, v0, v1);
            auto z3 = simd::mulModShoupV<Isa>(
                ctx, simd::subModLazyRawV<Isa>(ctx, v0, v1), wb, algo);
            if (last) {
                z0 = simd::condSubDwV<Isa>(ctx, z0, ctx.qh, ctx.ql);
                z1 = simd::condSubDwV<Isa>(ctx, z1, ctx.qh, ctx.ql);
                z2 = simd::condSubDwV<Isa>(ctx, z2, ctx.qh, ctx.ql);
                z3 = simd::condSubDwV<Isa>(ctx, z3, ctx.qh, ctx.ql);
            }
            typename Isa::V o0, o1, o2, o3;
            detail::interleave4<Isa>(z0.hi, z1.hi, z2.hi, z3.hi, o0, o1, o2,
                                     o3);
            Isa::storeu(dst.hi + 4 * p, o0);
            Isa::storeu(dst.hi + 4 * p + Isa::kLanes, o1);
            Isa::storeu(dst.hi + 4 * p + 2 * Isa::kLanes, o2);
            Isa::storeu(dst.hi + 4 * p + 3 * Isa::kLanes, o3);
            detail::interleave4<Isa>(z0.lo, z1.lo, z2.lo, z3.lo, o0, o1, o2,
                                     o3);
            Isa::storeu(dst.lo + 4 * p, o0);
            Isa::storeu(dst.lo + 4 * p + Isa::kLanes, o1);
            Isa::storeu(dst.lo + 4 * p + 2 * Isa::kLanes, o2);
            Isa::storeu(dst.lo + 4 * p + 3 * Isa::kLanes, o3);
        }
        for (; p < h2; ++p) {
            detail::forwardButterfly4LazyScalar(q, q2, src_hi, src_lo,
                                                dst.hi, dst.lo, tw_hi, tw_lo,
                                                twq_hi, twq_lo, p, h, s, last,
                                                algo);
        }
        src_hi = dst.hi;
        src_lo = dst.lo;
        target ^= 1;
    }
}

/**
 * Inverse Pease NTT with fused radix-4 passes, Shoup-lazy arithmetic:
 * stage pairs run high-to-low with a single radix-2 pass last when logn
 * is odd, then the fused n^-1 scaling + canonicalization. Bit-identical
 * to peaseInverseLazyImpl.
 */
template <class Isa>
void
peaseInverse4LazyImpl(const NttPlan& plan, DConstSpan in, DSpan out,
                      DSpan scratch, MulAlgo algo = MulAlgo::Schoolbook)
{
    detail::validateNttArgs(plan, in, out, scratch);
    const size_t h = plan.half();
    const size_t h2 = h / 2;
    const int m = plan.logn();
    const Modulus& mod = plan.modulus();
    simd::ModCtx<Isa> ctx = simd::makeModCtx<Isa>(mod);
    const mod::DW<uint64_t> q = mod::toDw(mod.value());
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
        const int sl = s - 1; // pair (s, s-1), indexed by the low stage
        DSpan dst = bufs[target];
        detail::StageShoup<Isa> tw0(tw_hi, tw_lo, twq_hi, twq_lo, sl);
        detail::StageShoup<Isa> tw1(tw_hi + h2, tw_lo + h2, twq_hi + h2,
                                    twq_lo + h2, sl);
        detail::StageShoup<Isa, true> twb(tw_hi, tw_lo, twq_hi, twq_lo, sl);
        size_t p = 0;
        for (; p + Isa::kLanes <= h2; p += Isa::kLanes) {
            auto i0h = Isa::loadu(src_hi + 4 * p);
            auto i1h = Isa::loadu(src_hi + 4 * p + Isa::kLanes);
            auto i2h = Isa::loadu(src_hi + 4 * p + 2 * Isa::kLanes);
            auto i3h = Isa::loadu(src_hi + 4 * p + 3 * Isa::kLanes);
            auto i0l = Isa::loadu(src_lo + 4 * p);
            auto i1l = Isa::loadu(src_lo + 4 * p + Isa::kLanes);
            auto i2l = Isa::loadu(src_lo + 4 * p + 2 * Isa::kLanes);
            auto i3l = Isa::loadu(src_lo + 4 * p + 3 * Isa::kLanes);
            simd::DV<Isa> z0, z1, z2, z3;
            detail::deinterleave4<Isa>(i0h, i1h, i2h, i3h, z0.hi, z1.hi,
                                       z2.hi, z3.hi);
            detail::deinterleave4<Isa>(i0l, i1l, i2l, i3l, z0.lo, z1.lo,
                                       z2.lo, z3.lo);
            const auto wb = twb.at(p);
            // First layer (inverse stage s): butterflies 2p and 2p+1.
            auto ta = simd::mulModShoupV<Isa>(ctx, z1, wb, algo);
            auto y0 = simd::addModLazyV<Isa>(ctx, z0, ta);
            auto yh0 = simd::subModLazyV<Isa>(ctx, z0, ta);
            auto tb = simd::mulModShoupV<Isa>(ctx, z3, wb, algo);
            auto y1 = simd::addModLazyV<Isa>(ctx, z2, tb);
            auto yh1 = simd::subModLazyV<Isa>(ctx, z2, tb);
            // Second layer (inverse stage s-1): butterflies p, p + h/2.
            auto t0 = simd::mulModShoupV<Isa>(ctx, y1, tw0.at(p), algo);
            simd::storeDv<Isa>(dst.hi, dst.lo, p,
                               simd::addModLazyV<Isa>(ctx, y0, t0));
            simd::storeDv<Isa>(dst.hi, dst.lo, p + h,
                               simd::subModLazyV<Isa>(ctx, y0, t0));
            auto t1 = simd::mulModShoupV<Isa>(ctx, yh1, tw1.at(p), algo);
            simd::storeDv<Isa>(dst.hi, dst.lo, p + h2,
                               simd::addModLazyV<Isa>(ctx, yh0, t1));
            simd::storeDv<Isa>(dst.hi, dst.lo, p + h + h2,
                               simd::subModLazyV<Isa>(ctx, yh0, t1));
        }
        for (; p < h2; ++p) {
            detail::inverseButterfly4LazyScalar(q, q2, src_hi, src_lo,
                                                dst.hi, dst.lo, tw_hi, tw_lo,
                                                twq_hi, twq_lo, p, h, sl,
                                                algo);
        }
        src_hi = dst.hi;
        src_lo = dst.lo;
        target ^= 1;
    }
    if (s == 0) {
        // Odd logn: the leftover radix-2 inverse stage (stage 0).
        DSpan dst = bufs[target];
        detail::StageShoup<Isa> tw(tw_hi, tw_lo, twq_hi, twq_lo, 0);
        size_t j = 0;
        for (; j + Isa::kLanes <= h; j += Isa::kLanes) {
            auto blk0h = Isa::loadu(src_hi + 2 * j);
            auto blk1h = Isa::loadu(src_hi + 2 * j + Isa::kLanes);
            auto blk0l = Isa::loadu(src_lo + 2 * j);
            auto blk1l = Isa::loadu(src_lo + 2 * j + Isa::kLanes);
            simd::DV<Isa> u, v;
            Isa::deinterleave2(blk0h, blk1h, u.hi, v.hi);
            Isa::deinterleave2(blk0l, blk1l, u.lo, v.lo);
            auto t = simd::mulModShoupV<Isa>(ctx, v, tw.at(j), algo);
            auto x0 = simd::addModLazyV<Isa>(ctx, u, t);
            auto x1 = simd::subModLazyV<Isa>(ctx, u, t);
            simd::storeDv<Isa>(dst.hi, dst.lo, j, x0);
            simd::storeDv<Isa>(dst.hi, dst.lo, j + h, x1);
        }
        for (; j < h; ++j) {
            detail::inverseButterflyLazyScalar(q, q2, src_hi, src_lo, dst.hi,
                                               dst.lo, tw_hi, tw_lo, twq_hi,
                                               twq_lo, j, h, 0, algo);
        }
    }

    // Fused n^-1 scaling + canonicalization (same as the radix-2 path).
    const U128 n_inv = plan.nInv();
    const U128 n_inv_sh = plan.nInvShoup();
    const auto vninv = simd::broadcastShoupW<Isa>(n_inv.hi, n_inv.lo,
                                                  n_inv_sh.hi, n_inv_sh.lo);
    size_t i = 0;
    for (; i + Isa::kLanes <= plan.n(); i += Isa::kLanes) {
        auto x = simd::loadDv<Isa>(out.hi, out.lo, i);
        auto r = simd::mulModShoupV<Isa>(ctx, x, vninv, algo);
        r = simd::condSubDwV<Isa>(ctx, r, ctx.qh, ctx.ql);
        simd::storeDv<Isa>(out.hi, out.lo, i, r);
    }
    const mod::DW<uint64_t> dn = mod::toDw(n_inv);
    const mod::DW<uint64_t> dnq = mod::toDw(n_inv_sh);
    for (; i < plan.n(); ++i) {
        detail::mulShoupCanonElementScalar(q, out.hi, out.lo, out.hi, out.lo,
                                           dn, dnq, i, algo);
    }
}

/**
 * Raw Shoup products c[i] = a[i] * t[i] - h*q in [0, 2q) (no
 * canonicalization) for any a[i] below 2^128, with tq the per-element
 * Shoup companions of t: the word-level probe of the ISA's vector
 * multiply (mca_report, test_shoup). In-place (c == a) is legal.
 */
template <class Isa>
void
vmulShoupLazyImpl(const Modulus& m, DConstSpan a, DConstSpan t, DConstSpan tq,
                  DSpan c)
{
    checkArg(a.n == t.n && a.n == tq.n && a.n == c.n,
             "vmulShoupLazy: length mismatch");
    simd::ModCtx<Isa> ctx = simd::makeModCtx<Isa>(m);
    size_t i = 0;
    for (; i + Isa::kLanes <= a.n; i += Isa::kLanes) {
        auto x = simd::loadDv<Isa>(a.hi, a.lo, i);
        auto w = simd::loadDv<Isa>(t.hi, t.lo, i);
        auto wq = simd::loadDv<Isa>(tq.hi, tq.lo, i);
        simd::storeDv<Isa>(c.hi, c.lo, i,
                           simd::mulModShoupV<Isa>(ctx, x, w, wq));
    }
    const mod::DW<uint64_t> q = mod::toDw(m.value());
    for (; i < a.n; ++i) {
        auto r = mod::mulModShoup(mod::DW<uint64_t>{a.hi[i], a.lo[i]},
                                  mod::DW<uint64_t>{t.hi[i], t.lo[i]},
                                  mod::DW<uint64_t>{tq.hi[i], tq.lo[i]}, q,
                                  MulAlgo::Schoolbook);
        c.hi[i] = r.hi;
        c.lo[i] = r.lo;
    }
}

// ======================================================================
// Interleaved batch layout helpers.
//
// The batch kernels serve IL residue channels per stage sweep over the
// channel-major tiled layout of core/batch_layout.h: element e of lane
// c lives at flat word batchIndex(e, c, il), so every vector load of
// kLanes consecutive elements of one lane is contiguous (kLanes divides
// the 8-word tile for every backend).
// ======================================================================

namespace detail {

/** Flat word index of element @p e of lane @p c in one IL-lane group. */
MQX_FORCE_INLINE size_t
batchIndex(size_t e, size_t c, size_t il)
{
    constexpr size_t w = BatchLayout::kTileWords; // power of two
    return ((e / w) * il + c) * w + (e & (w - 1));
}

/** Batch flavour of validateNttArgs: buffers hold il lanes of plan.n()
 *  elements each; same no-overlap contract between the three. */
inline void
validateBatchNttArgs(const NttPlan& plan, size_t il, DConstSpan in,
                     DConstSpan out, DConstSpan scratch)
{
    checkArg(il >= 1 && il <= 64, "ntt batch: interleave factor out of range");
    checkArg(plan.n() >= 2 * BatchLayout::kTileWords,
             "ntt batch: plan size must be at least 16");
    const size_t want = il * plan.n();
    if (in.n != want || out.n != want || scratch.n != want)
        failNttArgs("ntt batch: buffer sizes must equal il * plan size", plan,
                    in, out, scratch);
    auto overlaps = [](DConstSpan a, DConstSpan b) {
        return sameSpan(a, b) || spansPartiallyOverlap(a, b);
    };
    if (overlaps(in, out) || overlaps(in, scratch) || overlaps(out, scratch))
        failNttArgs("ntt batch: in/out/scratch must be distinct, "
                    "non-overlapping buffers",
                    plan, in, out, scratch);
}

} // namespace detail

// ======================================================================
// Merged negacyclic kernels.
//
// The negacyclic transform with psi folded into the stage twiddles (see
// ntt/negacyclic.h for the math and the table layout): a Harvey
// Cooley-Tukey forward on the cyclic forward's wiring, values in
// [0, 4q) between stages and canonical out of the last one; and a
// Gentleman-Sande inverse on the cyclic inverse's wiring, values in
// [0, 2q) between stages, whose last stage multiplies the sum branch by
// n^-1 and the difference branch by zeta^-1 * n^-1 (inverse-table
// entries 0 and 1). Canonical outputs, so the words match the twisted
// cyclic pipeline exactly. Each kernel comes per channel and in the
// IL-lane batch form, which loads every twiddle vector once and reuses
// it across the lanes.
// ======================================================================

namespace detail {

/**
 * Stage-s twiddles of the merged transform as simd::ShoupW: butterfly j
 * reads entry 2^s + (j mod 2^s). While 2^s < kLanes every vector of
 * butterflies reads the same pattern, so it is built once per stage;
 * from 2^s >= kLanes on, a vector's entries are contiguous (j is a
 * multiple of kLanes) and cost one load.
 */
template <class Isa>
class NegacyclicStageShoup
{
  public:
    NegacyclicStageShoup(DConstSpan w, DConstSpan wq, int s)
        : w_(w), wq_(wq), base_(size_t{1} << s),
          hoisted_(base_ < Isa::kLanes)
    {
        if (!hoisted_)
            return;
        alignas(64) uint64_t th[Isa::kLanes], tl[Isa::kLanes];
        alignas(64) uint64_t qh[Isa::kLanes], ql[Isa::kLanes];
        for (size_t i = 0; i < Isa::kLanes; ++i) {
            const size_t e = negacyclicTwiddleIndex(s, i);
            th[i] = w.hi[e];
            tl[i] = w.lo[e];
            qh[i] = wq.hi[e];
            ql[i] = wq.lo[e];
        }
        pattern_ = simd::makeShoupW<Isa>(simd::loadDv<Isa>(th, tl, 0),
                                         simd::loadDv<Isa>(qh, ql, 0));
    }

    simd::ShoupW<Isa>
    at(size_t j) const
    {
        if (hoisted_)
            return pattern_;
        const size_t e = base_ + (j & (base_ - 1));
        return simd::makeShoupW<Isa>(simd::loadDv<Isa>(w_.hi, w_.lo, e),
                                     simd::loadDv<Isa>(wq_.hi, wq_.lo, e));
    }

  private:
    DConstSpan w_, wq_;
    size_t base_;
    bool hoisted_;
    simd::ShoupW<Isa> pattern_{};
};

/** [0, 4q) -> [0, q): the merged forward's last-stage canonicalization. */
template <class Isa>
MQX_FORCE_INLINE simd::DV<Isa>
canonFrom4qV(const simd::ModCtx<Isa>& ctx, const simd::DV<Isa>& x)
{
    return simd::condSubDwV<Isa>(
        ctx, simd::condSubDwV<Isa>(ctx, x, ctx.q2h, ctx.q2l), ctx.qh,
        ctx.ql);
}

/** Vector negacyclicForwardButterflyScalar: a = src[ia], b = src[ib]. */
template <class Isa>
MQX_FORCE_INLINE void
negacyclicForwardButterflyV(const simd::ModCtx<Isa>& ctx,
                            const uint64_t* src_hi, const uint64_t* src_lo,
                            size_t ia, size_t ib, const simd::ShoupW<Isa>& w,
                            bool last, simd::DV<Isa>& u, simd::DV<Isa>& v)
{
    // a reduced to [0, 2q); t = w * b in [0, 2q).
    const auto a = simd::condSubDwV<Isa>(
        ctx, simd::loadDv<Isa>(src_hi, src_lo, ia), ctx.q2h, ctx.q2l);
    const auto t = simd::mulModShoupV<Isa>(
        ctx, simd::loadDv<Isa>(src_hi, src_lo, ib), w);
    u = simd::addDwV<Isa>(ctx, a, t);         // [0, 4q)
    v = simd::subModLazyRawV<Isa>(ctx, a, t); // (0, 4q)
    if (last) {
        u = canonFrom4qV<Isa>(ctx, u);
        v = canonFrom4qV<Isa>(ctx, v);
    }
}

/** Vector negacyclicInverseButterflyScalar: u, v in [0, 2q). */
template <class Isa>
MQX_FORCE_INLINE void
negacyclicInverseButterflyV(const simd::ModCtx<Isa>& ctx,
                            const simd::DV<Isa>& u, const simd::DV<Isa>& v,
                            const simd::ShoupW<Isa>& w, simd::DV<Isa>& x0,
                            simd::DV<Isa>& x1)
{
    x0 = simd::addModLazyV<Isa>(ctx, u, v);
    x1 = simd::mulModShoupV<Isa>(ctx, simd::subModLazyRawV<Isa>(ctx, u, v),
                                 w);
}

/** Vector negacyclicInverseLastButterflyScalar (n^-1 folded in). */
template <class Isa>
MQX_FORCE_INLINE void
negacyclicInverseLastButterflyV(const simd::ModCtx<Isa>& ctx,
                                const simd::DV<Isa>& u,
                                const simd::DV<Isa>& v,
                                const simd::ShoupW<Isa>& ninv,
                                const simd::ShoupW<Isa>& w, simd::DV<Isa>& x0,
                                simd::DV<Isa>& x1)
{
    x0 = simd::mulModShoupV<Isa>(ctx, simd::addDwV<Isa>(ctx, u, v), ninv);
    x0 = simd::condSubDwV<Isa>(ctx, x0, ctx.qh, ctx.ql);
    x1 = simd::mulModShoupV<Isa>(ctx, simd::subModLazyRawV<Isa>(ctx, u, v),
                                 w);
    x1 = simd::condSubDwV<Isa>(ctx, x1, ctx.qh, ctx.ql);
}

/** Interleave (u, v) and store the two blocks at words i0 and i1. */
template <class Isa>
MQX_FORCE_INLINE void
storeInterleaved(DSpan dst, size_t i0, size_t i1, const simd::DV<Isa>& u,
                 const simd::DV<Isa>& v)
{
    typename Isa::V blk0, blk1;
    Isa::interleave2(u.hi, v.hi, blk0, blk1);
    Isa::storeu(dst.hi + i0, blk0);
    Isa::storeu(dst.hi + i1, blk1);
    Isa::interleave2(u.lo, v.lo, blk0, blk1);
    Isa::storeu(dst.lo + i0, blk0);
    Isa::storeu(dst.lo + i1, blk1);
}

/** Load the blocks at words i0 and i1 and split them into (u, v). */
template <class Isa>
MQX_FORCE_INLINE void
loadDeinterleaved(const uint64_t* hi, const uint64_t* lo, size_t i0,
                  size_t i1, simd::DV<Isa>& u, simd::DV<Isa>& v)
{
    Isa::deinterleave2(Isa::loadu(hi + i0), Isa::loadu(hi + i1), u.hi, v.hi);
    Isa::deinterleave2(Isa::loadu(lo + i0), Isa::loadu(lo + i1), u.lo, v.lo);
}

/** Inverse-table entry @p e as a broadcast ShoupW. */
template <class Isa>
inline simd::ShoupW<Isa>
broadcastEntry(DConstSpan w, DConstSpan wq, size_t e)
{
    return simd::broadcastShoupW<Isa>(w.hi[e], w.lo[e], wq.hi[e], wq.lo[e]);
}

/**
 * Merged forward stage sweeps over il lanes in the batch layout. IL = 0
 * is the runtime-il loop; IL in {4, 8} unrolls the lane loop around the
 * hoisted twiddle registers.
 */
template <class Isa, size_t IL>
void
negacyclicForwardBatchCore(const NegacyclicTables& tables, size_t il_rt,
                           DConstSpan in, DSpan out, DSpan scratch)
{
    const size_t il = IL ? IL : il_rt;
    constexpr size_t w8 = BatchLayout::kTileWords;
    const NttPlan& plan = tables.plan();
    const size_t h = plan.half();
    const int m = plan.logn();
    simd::ModCtx<Isa> ctx = simd::makeModCtx<Isa>(plan.modulus());
    const DConstSpan w = tables.forwardTwiddles().span();
    const DConstSpan wq = tables.forwardTwiddlesShoup().span();
    const size_t pf = core::prefetchDistance() * il * w8;

    DSpan bufs[2] = {out, scratch};
    int target = (m % 2 == 1) ? 0 : 1;
    const uint64_t* src_hi = in.hi;
    const uint64_t* src_lo = in.lo;
    for (int s = 0; s < m; ++s) {
        const bool last = s == m - 1;
        DSpan dst = bufs[target];
        NegacyclicStageShoup<Isa> tw(w, wq, s);
        // h >= 8 and kLanes divides 8, so the lane loop has no tail.
        for (size_t j = 0; j + Isa::kLanes <= h; j += Isa::kLanes) {
            const auto wj = tw.at(j);
            const size_t ja = batchIndex(j, 0, il);
            const size_t jb = batchIndex(j + h, 0, il);
            const size_t jo0 = batchIndex(2 * j, 0, il);
            const size_t jo1 = batchIndex(2 * j + Isa::kLanes, 0, il);
            // One prefetch pair per read stream per group-row: the il
            // lane rows behind it are contiguous, so the hardware
            // streamer follows; issuing per lane was pure instruction
            // overhead (measurably slower on 8-lane tiers).
            if (pf && (j & (w8 - 1)) == 0) {
                core::prefetchNext(src_hi, src_lo, ja, pf);
                core::prefetchNext(src_hi, src_lo, jb, pf);
            }
            for (size_t c = 0; c < il; ++c) {
                simd::DV<Isa> u, v;
                negacyclicForwardButterflyV<Isa>(ctx, src_hi, src_lo,
                                                 ja + c * w8, jb + c * w8,
                                                 wj, last, u, v);
                storeInterleaved<Isa>(dst, jo0 + c * w8, jo1 + c * w8, u, v);
            }
        }
        src_hi = dst.hi;
        src_lo = dst.lo;
        target ^= 1;
    }
}

/** Merged inverse stage sweeps over il lanes (see the forward core). */
template <class Isa, size_t IL>
void
negacyclicInverseBatchCore(const NegacyclicTables& tables, size_t il_rt,
                           DConstSpan in, DSpan out, DSpan scratch)
{
    const size_t il = IL ? IL : il_rt;
    constexpr size_t w8 = BatchLayout::kTileWords;
    const NttPlan& plan = tables.plan();
    const size_t h = plan.half();
    const int m = plan.logn();
    simd::ModCtx<Isa> ctx = simd::makeModCtx<Isa>(plan.modulus());
    const DConstSpan w = tables.inverseTwiddles().span();
    const DConstSpan wq = tables.inverseTwiddlesShoup().span();
    const size_t pf = core::prefetchDistance() * il * w8;
    const auto ninv = broadcastEntry<Isa>(w, wq, 0);
    const auto wlast = broadcastEntry<Isa>(w, wq, 1);

    DSpan bufs[2] = {out, scratch};
    int target = (m % 2 == 1) ? 0 : 1;
    const uint64_t* src_hi = in.hi;
    const uint64_t* src_lo = in.lo;
    for (int s = m - 1; s >= 0; --s) {
        const bool last = s == 0;
        DSpan dst = bufs[target];
        NegacyclicStageShoup<Isa> tw(w, wq, s);
        for (size_t j = 0; j + Isa::kLanes <= h; j += Isa::kLanes) {
            const auto wj = tw.at(j);
            const size_t ji0 = batchIndex(2 * j, 0, il);
            const size_t ji1 = batchIndex(2 * j + Isa::kLanes, 0, il);
            const size_t jx0 = batchIndex(j, 0, il);
            const size_t jx1 = batchIndex(j + h, 0, il);
            // The inverse reads two interleaved rows per j, hence the
            // doubled lookahead.
            if (pf && (j & (w8 - 1)) == 0) {
                core::prefetchNext(src_hi, src_lo, ji0, 2 * pf);
                core::prefetchNext(src_hi, src_lo, ji1, 2 * pf);
            }
            for (size_t c = 0; c < il; ++c) {
                simd::DV<Isa> u, v, x0, x1;
                loadDeinterleaved<Isa>(src_hi, src_lo, ji0 + c * w8,
                                       ji1 + c * w8, u, v);
                if (last)
                    negacyclicInverseLastButterflyV<Isa>(ctx, u, v, ninv,
                                                         wlast, x0, x1);
                else
                    negacyclicInverseButterflyV<Isa>(ctx, u, v, wj, x0, x1);
                simd::storeDv<Isa>(dst.hi, dst.lo, jx0 + c * w8, x0);
                simd::storeDv<Isa>(dst.hi, dst.lo, jx1 + c * w8, x1);
            }
        }
        src_hi = dst.hi;
        src_lo = dst.lo;
        target ^= 1;
    }
}

/**
 * Word of element @p e of lane @p c for the scalar merged cores: IL = 1
 * is the per-channel layout, anything else the batch layout.
 */
template <size_t IL>
MQX_FORCE_INLINE size_t
scalarCoreIndex(size_t e, size_t c, size_t il)
{
    if constexpr (IL == 1)
        return e;
    else
        return batchIndex(e, c, il);
}

/** The scalar merged cores' default per-stage hook: none. */
struct NoStageHook
{
    void operator()(DConstSpan, int) const {}
};

/**
 * Scalar merged forward over il lanes (Backend::Scalar): IL = 1 is the
 * per-channel transform, IL = 0 the runtime-il batch. Policy-templated
 * like the butterflies; @p on_stage(dst, s) runs after every stage s,
 * so the range-contract tests check this very loop.
 */
template <size_t IL, class A = mod::DefaultLazyOps,
          class OnStage = NoStageHook>
void
negacyclicForwardScalarCore(const NegacyclicTables& tables, size_t il_rt,
                            DConstSpan in, DSpan out, DSpan scratch,
                            OnStage on_stage = {})
{
    const size_t il = IL ? IL : il_rt;
    const NttPlan& plan = tables.plan();
    const size_t h = plan.half();
    const int m = plan.logn();
    const mod::DW<uint64_t> q = mod::toDw(plan.modulus().value());
    const mod::DW<uint64_t> q2 = mod::shl1Dw(q);
    const DConstSpan w = tables.forwardTwiddles().span();
    const DConstSpan wq = tables.forwardTwiddlesShoup().span();

    DSpan bufs[2] = {out, scratch};
    int target = (m % 2 == 1) ? 0 : 1;
    const uint64_t* src_hi = in.hi;
    const uint64_t* src_lo = in.lo;
    for (int s = 0; s < m; ++s) {
        const bool last = s == m - 1;
        DSpan dst = bufs[target];
        for (size_t j = 0; j < h; ++j) {
            const size_t e = negacyclicTwiddleIndex(s, j);
            const mod::DW<uint64_t> wj{w.hi[e], w.lo[e]};
            const mod::DW<uint64_t> wjq{wq.hi[e], wq.lo[e]};
            for (size_t c = 0; c < il; ++c) {
                negacyclicForwardButterflyScalar<A>(
                    q, q2, src_hi, src_lo, dst.hi, dst.lo, wj, wjq,
                    scalarCoreIndex<IL>(j, c, il),
                    scalarCoreIndex<IL>(j + h, c, il),
                    scalarCoreIndex<IL>(2 * j, c, il),
                    scalarCoreIndex<IL>(2 * j + 1, c, il), last);
            }
        }
        on_stage(DConstSpan(dst), s);
        src_hi = dst.hi;
        src_lo = dst.lo;
        target ^= 1;
    }
}

/** Scalar merged inverse (see negacyclicForwardScalarCore). */
template <size_t IL, class A = mod::DefaultLazyOps,
          class OnStage = NoStageHook>
void
negacyclicInverseScalarCore(const NegacyclicTables& tables, size_t il_rt,
                            DConstSpan in, DSpan out, DSpan scratch,
                            OnStage on_stage = {})
{
    const size_t il = IL ? IL : il_rt;
    const NttPlan& plan = tables.plan();
    const size_t h = plan.half();
    const int m = plan.logn();
    const mod::DW<uint64_t> q = mod::toDw(plan.modulus().value());
    const mod::DW<uint64_t> q2 = mod::shl1Dw(q);
    const DConstSpan w = tables.inverseTwiddles().span();
    const DConstSpan wq = tables.inverseTwiddlesShoup().span();
    const mod::DW<uint64_t> ninv{w.hi[0], w.lo[0]};
    const mod::DW<uint64_t> ninvq{wq.hi[0], wq.lo[0]};

    DSpan bufs[2] = {out, scratch};
    int target = (m % 2 == 1) ? 0 : 1;
    const uint64_t* src_hi = in.hi;
    const uint64_t* src_lo = in.lo;
    for (int s = m - 1; s >= 0; --s) {
        DSpan dst = bufs[target];
        for (size_t j = 0; j < h; ++j) {
            const size_t e = negacyclicTwiddleIndex(s, j);
            const mod::DW<uint64_t> wj{w.hi[e], w.lo[e]};
            const mod::DW<uint64_t> wjq{wq.hi[e], wq.lo[e]};
            for (size_t c = 0; c < il; ++c) {
                const size_t i0 = scalarCoreIndex<IL>(2 * j, c, il);
                const size_t i1 = scalarCoreIndex<IL>(2 * j + 1, c, il);
                const size_t o0 = scalarCoreIndex<IL>(j, c, il);
                const size_t o1 = scalarCoreIndex<IL>(j + h, c, il);
                if (s == 0)
                    negacyclicInverseLastButterflyScalar<A>(
                        q, q2, src_hi, src_lo, dst.hi, dst.lo, ninv, ninvq,
                        wj, wjq, i0, i1, o0, o1);
                else
                    negacyclicInverseButterflyScalar<A>(
                        q, q2, src_hi, src_lo, dst.hi, dst.lo, wj, wjq, i0,
                        i1, o0, o1);
            }
        }
        on_stage(DConstSpan(dst), s);
        src_hi = dst.hi;
        src_lo = dst.lo;
        target ^= 1;
    }
}

} // namespace detail

/**
 * Merged negacyclic forward of one channel (see ntt/negacyclic.h):
 * canonical natural-order input, canonical bit-reversed output. The
 * scalar loop only serves transforms with n/2 < kLanes.
 */
template <class Isa>
void
negacyclicForwardImpl(const NegacyclicTables& tables, DConstSpan in,
                      DSpan out, DSpan scratch)
{
    const NttPlan& plan = tables.plan();
    detail::validateNttArgs(plan, in, out, scratch);
    const size_t h = plan.half();
    const int m = plan.logn();
    simd::ModCtx<Isa> ctx = simd::makeModCtx<Isa>(plan.modulus());
    const mod::DW<uint64_t> q = mod::toDw(plan.modulus().value());
    const mod::DW<uint64_t> q2 = mod::shl1Dw(q);
    const DConstSpan w = tables.forwardTwiddles().span();
    const DConstSpan wq = tables.forwardTwiddlesShoup().span();

    DSpan bufs[2] = {out, scratch};
    int target = (m % 2 == 1) ? 0 : 1;
    const uint64_t* src_hi = in.hi;
    const uint64_t* src_lo = in.lo;
    for (int s = 0; s < m; ++s) {
        const bool last = s == m - 1;
        DSpan dst = bufs[target];
        detail::NegacyclicStageShoup<Isa> tw(w, wq, s);
        size_t j = 0;
        for (; j + Isa::kLanes <= h; j += Isa::kLanes) {
            simd::DV<Isa> u, v;
            detail::negacyclicForwardButterflyV<Isa>(
                ctx, src_hi, src_lo, j, j + h, tw.at(j), last, u, v);
            detail::storeInterleaved<Isa>(dst, 2 * j, 2 * j + Isa::kLanes, u,
                                          v);
        }
        for (; j < h; ++j) {
            const size_t e = detail::negacyclicTwiddleIndex(s, j);
            detail::negacyclicForwardButterflyScalar(
                q, q2, src_hi, src_lo, dst.hi, dst.lo,
                mod::DW<uint64_t>{w.hi[e], w.lo[e]},
                mod::DW<uint64_t>{wq.hi[e], wq.lo[e]}, j, j + h, 2 * j,
                2 * j + 1, last);
        }
        src_hi = dst.hi;
        src_lo = dst.lo;
        target ^= 1;
    }
}

/**
 * Merged negacyclic inverse of one channel: canonical bit-reversed
 * input, canonical natural-order output, n^-1 folded into the last
 * stage.
 */
template <class Isa>
void
negacyclicInverseImpl(const NegacyclicTables& tables, DConstSpan in,
                      DSpan out, DSpan scratch)
{
    const NttPlan& plan = tables.plan();
    detail::validateNttArgs(plan, in, out, scratch);
    const size_t h = plan.half();
    const int m = plan.logn();
    simd::ModCtx<Isa> ctx = simd::makeModCtx<Isa>(plan.modulus());
    const mod::DW<uint64_t> q = mod::toDw(plan.modulus().value());
    const mod::DW<uint64_t> q2 = mod::shl1Dw(q);
    const DConstSpan w = tables.inverseTwiddles().span();
    const DConstSpan wq = tables.inverseTwiddlesShoup().span();

    DSpan bufs[2] = {out, scratch};
    int target = (m % 2 == 1) ? 0 : 1;
    const uint64_t* src_hi = in.hi;
    const uint64_t* src_lo = in.lo;
    for (int s = m - 1; s >= 1; --s) {
        DSpan dst = bufs[target];
        detail::NegacyclicStageShoup<Isa> tw(w, wq, s);
        size_t j = 0;
        for (; j + Isa::kLanes <= h; j += Isa::kLanes) {
            simd::DV<Isa> u, v, x0, x1;
            detail::loadDeinterleaved<Isa>(src_hi, src_lo, 2 * j,
                                           2 * j + Isa::kLanes, u, v);
            detail::negacyclicInverseButterflyV<Isa>(ctx, u, v, tw.at(j), x0,
                                                     x1);
            simd::storeDv<Isa>(dst.hi, dst.lo, j, x0);
            simd::storeDv<Isa>(dst.hi, dst.lo, j + h, x1);
        }
        for (; j < h; ++j) {
            const size_t e = detail::negacyclicTwiddleIndex(s, j);
            detail::negacyclicInverseButterflyScalar(
                q, q2, src_hi, src_lo, dst.hi, dst.lo,
                mod::DW<uint64_t>{w.hi[e], w.lo[e]},
                mod::DW<uint64_t>{wq.hi[e], wq.lo[e]}, 2 * j, 2 * j + 1, j,
                j + h);
        }
        src_hi = dst.hi;
        src_lo = dst.lo;
        target ^= 1;
    }

    // Stage 0 lands in out (the parity above), with n^-1 folded in.
    const auto ninv = detail::broadcastEntry<Isa>(w, wq, 0);
    const auto wlast = detail::broadcastEntry<Isa>(w, wq, 1);
    size_t j = 0;
    for (; j + Isa::kLanes <= h; j += Isa::kLanes) {
        simd::DV<Isa> u, v, x0, x1;
        detail::loadDeinterleaved<Isa>(src_hi, src_lo, 2 * j,
                                       2 * j + Isa::kLanes, u, v);
        detail::negacyclicInverseLastButterflyV<Isa>(ctx, u, v, ninv, wlast,
                                                     x0, x1);
        simd::storeDv<Isa>(out.hi, out.lo, j, x0);
        simd::storeDv<Isa>(out.hi, out.lo, j + h, x1);
    }
    for (; j < h; ++j) {
        detail::negacyclicInverseLastButterflyScalar(
            q, q2, src_hi, src_lo, out.hi, out.lo,
            mod::DW<uint64_t>{w.hi[0], w.lo[0]},
            mod::DW<uint64_t>{wq.hi[0], wq.lo[0]},
            mod::DW<uint64_t>{w.hi[1], w.lo[1]},
            mod::DW<uint64_t>{wq.hi[1], wq.lo[1]}, 2 * j, 2 * j + 1, j,
            j + h);
    }
}

/**
 * Merged negacyclic forward over il lanes packed by batch::packLanes;
 * per lane word-identical to negacyclicForwardImpl.
 */
template <class Isa>
void
negacyclicForwardBatchImpl(const NegacyclicTables& tables, size_t il,
                           DConstSpan in, DSpan out, DSpan scratch)
{
    detail::validateBatchNttArgs(tables.plan(), il, in, out, scratch);
    switch (il) {
    case 4:
        detail::negacyclicForwardBatchCore<Isa, 4>(tables, il, in, out,
                                                   scratch);
        break;
    case 8:
        detail::negacyclicForwardBatchCore<Isa, 8>(tables, il, in, out,
                                                   scratch);
        break;
    default:
        detail::negacyclicForwardBatchCore<Isa, 0>(tables, il, in, out,
                                                   scratch);
        break;
    }
}

/** Batch counterpart of negacyclicInverseImpl. */
template <class Isa>
void
negacyclicInverseBatchImpl(const NegacyclicTables& tables, size_t il,
                           DConstSpan in, DSpan out, DSpan scratch)
{
    detail::validateBatchNttArgs(tables.plan(), il, in, out, scratch);
    switch (il) {
    case 4:
        detail::negacyclicInverseBatchCore<Isa, 4>(tables, il, in, out,
                                                   scratch);
        break;
    case 8:
        detail::negacyclicInverseBatchCore<Isa, 8>(tables, il, in, out,
                                                   scratch);
        break;
    default:
        detail::negacyclicInverseBatchCore<Isa, 0>(tables, il, in, out,
                                                   scratch);
        break;
    }
}

/** Backend::Scalar merged forward (native 128-bit scalar arithmetic). */
inline void
negacyclicForwardScalarImpl(const NegacyclicTables& tables, DConstSpan in,
                            DSpan out, DSpan scratch)
{
    detail::validateNttArgs(tables.plan(), in, out, scratch);
    detail::negacyclicForwardScalarCore<1>(tables, 1, in, out, scratch);
}

/** Backend::Scalar merged inverse. */
inline void
negacyclicInverseScalarImpl(const NegacyclicTables& tables, DConstSpan in,
                            DSpan out, DSpan scratch)
{
    detail::validateNttArgs(tables.plan(), in, out, scratch);
    detail::negacyclicInverseScalarCore<1>(tables, 1, in, out, scratch);
}

/** Backend::Scalar merged forward over il packed lanes. */
inline void
negacyclicForwardBatchScalarImpl(const NegacyclicTables& tables, size_t il,
                                 DConstSpan in, DSpan out, DSpan scratch)
{
    detail::validateBatchNttArgs(tables.plan(), il, in, out, scratch);
    detail::negacyclicForwardScalarCore<0>(tables, il, in, out, scratch);
}

/** Backend::Scalar merged inverse over il packed lanes. */
inline void
negacyclicInverseBatchScalarImpl(const NegacyclicTables& tables, size_t il,
                                 DConstSpan in, DSpan out, DSpan scratch)
{
    detail::validateBatchNttArgs(tables.plan(), il, in, out, scratch);
    detail::negacyclicInverseScalarCore<0>(tables, il, in, out, scratch);
}

} // namespace ntt
} // namespace mqx
