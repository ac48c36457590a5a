/**
 * @file
 * The Pease constant-geometry NTT: one kernel body, templated over a
 * SIMD ISA policy, for the cyclic transform, the merged negacyclic one
 * and every ablation of both.
 *
 * Forward stage s (of log2 n), butterfly j in [0, n/2), a Harvey
 * Cooley-Tukey butterfly:
 *
 *     t = x[j + n/2] * w,  w = entry offset(s) + (j mod 2^s)
 *     y[2j] = x[j] + t;  y[2j+1] = x[j] - t
 *
 * Reads are contiguous at stride n/2, writes are the perfect shuffle —
 * in SIMD the two result vectors are interleaved with
 * unpack/permutex2var-style shuffles (paper Section 3.2) and stored as
 * two contiguous blocks. Output ends up in bit-reversed order. The
 * inverse runs the transposed Gentleman-Sande stages in reverse order
 * (reads interleaved pairs, writes strided halves) with the inverted
 * twiddles; its last stage multiplies the sum branch and the difference
 * branch by the table's last-stage factors, which fold in n^-1. The
 * table layouts (cyclic n/2 entries at offset 0, merged negacyclic n
 * entries at offset 2^s) are described at detail::PeaseTwiddles. The
 * merged inverse has no table of its own: it reads the forward table
 * mirrored within each level and multiplies v - u instead of u - v.
 * The scalar cores pay for that in index arithmetic only; the SIMD
 * kernels reverse the lanes of each twiddle vector (one permute per
 * register, none where the load already deinterleaves).
 *
 * One body, two knobs (detail::PeaseShape):
 *
 *  - Reduction::ShoupLazy (default): Harvey lazy butterflies. Forward
 *    values live in [0, 4q) between stages, inverse values in [0, 2q)
 *    (q < 2^124 leaves 4 bits of double-word headroom); every twiddle
 *    multiply is the Shoup precomputed-quotient form, and the last
 *    stage of either direction canonicalizes. Reduction::Barrett keeps
 *    canonical operands and a full Eq.-4 reduction per multiply — the
 *    paper's original kernels, the ablation baseline. Radix-2 only.
 *    Reduction::BarrettKaratsuba runs them on Karatsuba (Eq. 9)
 *    products, the Section 5.5 ablation (Barrett on IFMA ISAs: one limb
 *    product). Every other multiply is schoolbook (Eq. 8).
 *  - StageFusion::Radix4 fuses two stages per ping-pong sweep: pass p
 *    loads x[p], x[p+n/4], x[p+n/2], x[p+3n/4], runs both butterfly
 *    layers in registers with exactly the radix-2 arithmetic (so the
 *    words are identical) and stores y[4p .. 4p+3]. The first layer's
 *    two butterflies share one twiddle (2^s divides n/4); the second
 *    layer's two read adjacent entries, one deinterleaved load.
 *
 * Canonical outputs in every shape, so every shape, reduction and ISA
 * produces the same words.
 *
 * Out-of-place ping-pong: the caller provides `out` and `scratch`
 * buffers; the stage parity is arranged so the final pass always lands
 * in `out`. Neither may alias the input (any hi/lo storage overlap,
 * including lo-lo and mixed hi-lo, is rejected).
 */
#pragma once

#include <cstdio>
#include <type_traits>
#include <utility>

#include "core/batch_layout.h"
#include "core/prefetch.h"
#include "mod/range_checked.h"
#include "ntt/ntt_backends.h"
#include "simd/dw_kernels.h"

namespace mqx {
namespace ntt {

namespace detail {

using Dw = mod::DW<uint64_t>;

// ======================================================================
// Argument checks, ping-pong and layout helpers.
// ======================================================================

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

inline bool
anyOverlap(DConstSpan in, DConstSpan out, DConstSpan scratch)
{
    // The ping-pong is out-of-place: reject ANY storage sharing between
    // the three buffers — identical spans, aliased lo arrays, and mixed
    // hi/lo overlap included (the span-overlap contract of the SoA
    // layout, not just hi-pointer distinctness).
    auto overlaps = [](DConstSpan a, DConstSpan b) {
        return sameSpan(a, b) || spansPartiallyOverlap(a, b);
    };
    return overlaps(in, out) || overlaps(in, scratch) ||
           overlaps(out, scratch);
}

inline void
validateNttArgs(const NttPlan& plan, DConstSpan in, DSpan out, DSpan scratch)
{
    if (in.n != plan.n() || out.n != plan.n() || scratch.n != plan.n())
        failNttArgs("ntt: buffer sizes must equal the plan size", plan, in,
                    out, scratch);
    if (anyOverlap(in, out, scratch))
        failNttArgs(
            "ntt: in/out/scratch must be distinct, non-overlapping buffers",
            plan, in, out, scratch);
}

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
    if (anyOverlap(in, out, scratch))
        failNttArgs("ntt batch: in/out/scratch must be distinct, "
                    "non-overlapping buffers",
                    plan, in, out, scratch);
}

/**
 * The out-of-place ping-pong over (out, scratch) for @p passes sweeps,
 * arranged so the last sweep lands in out: src() is the current input,
 * dst() the current output, next() advances one sweep.
 */
class PingPong
{
  public:
    PingPong(DConstSpan in, DSpan out, DSpan scratch, int passes)
        : bufs_{out, scratch}, target_(passes % 2 == 1 ? 0 : 1),
          src_hi_(in.hi), src_lo_(in.lo)
    {
    }

    const uint64_t* srcHi() const { return src_hi_; }
    const uint64_t* srcLo() const { return src_lo_; }
    DSpan dst() const { return bufs_[target_]; }

    void
    next()
    {
        src_hi_ = bufs_[target_].hi;
        src_lo_ = bufs_[target_].lo;
        target_ ^= 1;
    }

  private:
    DSpan bufs_[2];
    int target_;
    const uint64_t* src_hi_;
    const uint64_t* src_lo_;
};

/** Sweeps of a transform: logn radix-2 stages, or ceil(logn/2) fused. */
inline int
peasePasses(int logn, bool fused)
{
    return fused ? (logn + 1) / 2 : logn;
}

/**
 * Whether the forward sweep starting at stage @p s fuses (s, s+1): with
 * odd logn the first stage runs alone, then pairs.
 */
inline bool
forwardPairAt(bool fused, int s, int logn)
{
    return fused && s + 1 < logn && (s > 0 || logn % 2 == 0);
}

/**
 * Stage-s table entry of butterfly j (see PeaseTwiddles): offset(s) +
 * (j mod 2^s), or offset(s) + 2^s - 1 - (j mod 2^s) on a mirrored table.
 */
MQX_FORCE_INLINE size_t
twiddleIndex(const PeaseTwiddles& tw, int s, size_t j)
{
    const size_t mask = (size_t{1} << s) - 1;
    return tw.offset(s) + ((j & mask) ^ (tw.mirrored ? mask : 0));
}

inline Dw
entry(DConstSpan t, size_t e)
{
    return Dw{t.hi[e], t.lo[e]};
}

// ======================================================================
// Scalar butterflies. The Shoup-lazy ones are templated over the
// range-contract arithmetic policy (mod/range_checked.h): the default
// instantiation is the production unchecked arithmetic (or the checked
// algebra under MQX_RANGE_AUDIT); the contract tests instantiate
// mod::CheckedLazyOps explicitly. All policies share this one source, so
// the checked kernels are bit-identical to the unchecked ones.
// ======================================================================

/** Forward (Cooley-Tukey) butterfly on values in [0, 4q): u = a' + w*b,
 *  v = a' - w*b + 2q, both in [0, 4q), where a' is a reduced to [0, 2q). */
template <class A>
MQX_FORCE_INLINE std::pair<typename A::V4q, typename A::V4q>
forwardButterfly(const Dw& q, const Dw& q2, const typename A::V4q& a,
                 const typename A::V4q& b, const Dw& w, const Dw& wq)
{
    // The product first: measured ~8% faster on the scalar backend than
    // reducing a first.
    auto t = A::mulShoup(b, A::twiddle(w, q), wq, q); // [0, 2q)
    auto a2 = A::condSub2q(a, q2, q);                 // [0, 2q)
    return {A::add(a2, t, q),                         // [0, 4q)
            A::subRaw(a2, t, q2, q)};                 // (0, 4q)
}

/** Store a forward output: raw [0, 4q), or canonical when @p last. */
template <class A>
MQX_FORCE_INLINE void
storeForward(const Dw& q, const Dw& q2, uint64_t* hi, uint64_t* lo, size_t i,
             const typename A::V4q& x, bool last)
{
    if (last)
        A::store(hi, lo, i, A::canon(A::condSub2q(x, q2, q), q));
    else
        A::store(hi, lo, i, x);
}

/** Inverse (Gentleman-Sande) butterfly on [0, 2q): x0 = u + v,
 *  x1 = (u - v) * w, both in [0, 2q). */
template <class A>
MQX_FORCE_INLINE std::pair<typename A::V2q, typename A::V2q>
inverseButterfly(const Dw& q, const Dw& q2, const typename A::V2q& u,
                 const typename A::V2q& v, const Dw& w, const Dw& wq)
{
    return {A::condSub2q(A::add(u, v, q), q2, q),
            A::mulShoup(A::subRaw(u, v, q2, q), A::twiddle(w, q), wq, q)};
}

/** The inverse's last-stage butterfly: sum and difference branches
 *  multiplied by the last-stage factors, both leave canonical. */
template <class A>
MQX_FORCE_INLINE std::pair<typename A::Vq, typename A::Vq>
inverseLastButterfly(const Dw& q, const Dw& q2, const typename A::V2q& u,
                     const typename A::V2q& v, const PeaseTwiddles& tw)
{
    return {A::canon(A::mulShoup(A::add(u, v, q),
                                 A::twiddle(mod::toDw(tw.last_sum), q),
                                 mod::toDw(tw.last_sum_q), q),
                     q),
            A::canon(A::mulShoup(A::subRaw(u, v, q2, q),
                                 A::twiddle(mod::toDw(tw.last_diff), q),
                                 mod::toDw(tw.last_diff_q), q),
                     q)};
}

/** Inverse butterfly at word indices: the last stage when @p last. */
template <class A>
MQX_FORCE_INLINE void
inverseButterflyAt(const Dw& q, const Dw& q2, const uint64_t* src_hi,
                   const uint64_t* src_lo, uint64_t* dst_hi, uint64_t* dst_lo,
                   const PeaseTwiddles& tw, const Dw& w, const Dw& wq,
                   size_t i0, size_t i1, size_t o0, size_t o1, bool last)
{
    const auto u = A::load2q(src_hi, src_lo, i0, q);
    const auto v = A::load2q(src_hi, src_lo, i1, q);
    if (last) {
        const auto [x0, x1] = inverseLastButterfly<A>(q, q2, u, v, tw);
        A::store(dst_hi, dst_lo, o0, x0);
        A::store(dst_hi, dst_lo, o1, x1);
    } else {
        const auto [x0, x1] = inverseButterfly<A>(q, q2, u, v, w, wq);
        A::store(dst_hi, dst_lo, o0, x0);
        A::store(dst_hi, dst_lo, o1, x1);
    }
}

/**
 * Fused radix-4 forward pass p over stages (s, s+1): reads x[p],
 * x[p+h/2], x[p+h], x[p+3h/2], runs both layers with exactly the
 * arithmetic of two radix-2 stages and writes y[4p .. 4p+3]. Both
 * first-layer butterflies read table entry @p e0; the second layer's
 * butterflies 2p and 2p + 1 read entries @p e1 and e1 + 1.
 */
template <class A>
MQX_FORCE_INLINE void
forwardButterfly4(const Dw& q, const Dw& q2,
                  const uint64_t* MQX_RESTRICT src_hi,
                  const uint64_t* MQX_RESTRICT src_lo,
                  uint64_t* MQX_RESTRICT dst_hi, uint64_t* MQX_RESTRICT dst_lo,
                  DConstSpan w, DConstSpan wq, size_t e0, size_t e1, size_t p,
                  size_t h, bool last)
{
    const size_t h2 = h / 2;
    // First layer (stage s): butterflies p and p + h/2.
    const auto [u0, v0] = forwardButterfly<A>(
        q, q2, A::load4q(src_hi, src_lo, p, q),
        A::load4q(src_hi, src_lo, p + h, q), entry(w, e0), entry(wq, e0));
    const auto [u1, v1] = forwardButterfly<A>(
        q, q2, A::load4q(src_hi, src_lo, p + h2, q),
        A::load4q(src_hi, src_lo, p + h + h2, q), entry(w, e0), entry(wq, e0));
    // Second layer (stage s+1): butterflies 2p and 2p + 1.
    const auto [z0, z1] =
        forwardButterfly<A>(q, q2, u0, u1, entry(w, e1), entry(wq, e1));
    const auto [z2, z3] = forwardButterfly<A>(
        q, q2, v0, v1, entry(w, e1 + 1), entry(wq, e1 + 1));
    storeForward<A>(q, q2, dst_hi, dst_lo, 4 * p, z0, last);
    storeForward<A>(q, q2, dst_hi, dst_lo, 4 * p + 1, z1, last);
    storeForward<A>(q, q2, dst_hi, dst_lo, 4 * p + 2, z2, last);
    storeForward<A>(q, q2, dst_hi, dst_lo, 4 * p + 3, z3, last);
}

/**
 * Fused radix-4 inverse pass p over inverse stages (s+1, s): reads
 * y[4p .. 4p+3], writes x[p], x[p+h/2], x[p+h], x[p+3h/2]. The second
 * layer is the last stage (n^-1 folded in) when s == 0. On a mirrored
 * table every butterfly but the last stage's takes v - u, so its
 * operands trade places (the sum is symmetric): within each first-layer
 * butterfly (f), and between the two first-layer butterflies that feed
 * the second layer (g).
 */
template <class A>
MQX_FORCE_INLINE void
inverseButterfly4(const Dw& q, const Dw& q2,
                  const uint64_t* MQX_RESTRICT src_hi,
                  const uint64_t* MQX_RESTRICT src_lo,
                  uint64_t* MQX_RESTRICT dst_hi, uint64_t* MQX_RESTRICT dst_lo,
                  const PeaseTwiddles& tw, int s, size_t p, size_t h)
{
    const size_t h2 = h / 2;
    const bool last = s == 0;
    const size_t f = tw.mirrored ? 1 : 0;
    const size_t g = tw.mirrored && !last ? 1 : 0;
    // First layer (inverse stage s+1): butterflies 2p + g (words 4p + 2g)
    // and 2p + 1 - g.
    auto first = [&](size_t t) {
        const size_t i = 4 * p + 2 * t;
        const size_t e = twiddleIndex(tw, s + 1, 2 * p + t);
        return inverseButterfly<A>(q, q2, A::load2q(src_hi, src_lo, i + f, q),
                                   A::load2q(src_hi, src_lo, i + 1 - f, q),
                                   entry(tw.w, e), entry(tw.wq, e));
    };
    const auto [y0, yh0] = first(g);
    const auto [y1, yh1] = first(1 - g);
    // Second layer (inverse stage s): butterflies p and p + h/2.
    auto store4 = [&](const auto& x0, const auto& x1, const auto& x2,
                      const auto& x3) {
        A::store(dst_hi, dst_lo, p, x0);
        A::store(dst_hi, dst_lo, p + h2, x1);
        A::store(dst_hi, dst_lo, p + h, x2);
        A::store(dst_hi, dst_lo, p + h + h2, x3);
    };
    if (last) {
        const auto [x0, x2] = inverseLastButterfly<A>(q, q2, y0, y1, tw);
        const auto [x1, x3] = inverseLastButterfly<A>(q, q2, yh0, yh1, tw);
        store4(x0, x1, x2, x3);
    } else {
        const size_t e0 = twiddleIndex(tw, s, p);
        const Dw w0 = entry(tw.w, e0), w0q = entry(tw.wq, e0);
        const auto [x0, x2] = inverseButterfly<A>(q, q2, y0, y1, w0, w0q);
        const auto [x1, x3] = inverseButterfly<A>(q, q2, yh0, yh1, w0, w0q);
        store4(x0, x1, x2, x3);
    }
}

/** a * b mod q with a full Barrett reduction, on the Karatsuba product
 *  under Reduction::BarrettKaratsuba, else on the schoolbook one. */
MQX_FORCE_INLINE Dw
mulBarrett(const Dw& a, const Dw& b, const mod::Barrett<uint64_t>& br,
           Reduction red)
{
    return red == Reduction::BarrettKaratsuba ? mod::mulModKaratsuba(a, b, br)
                                              : mod::mulModSchool(a, b, br);
}

/** Barrett forward butterfly at word indices, canonical in and out. */
MQX_FORCE_INLINE void
forwardButterflyBarrettAt(const mod::Barrett<uint64_t>& br, const Dw& q,
                          const uint64_t* src_hi, const uint64_t* src_lo,
                          uint64_t* dst_hi, uint64_t* dst_lo, const Dw& w,
                          size_t ia, size_t ib, size_t o0, size_t o1,
                          Reduction red)
{
    const Dw a{src_hi[ia], src_lo[ia]};
    const Dw t = mulBarrett(Dw{src_hi[ib], src_lo[ib]}, w, br, red);
    const Dw u = mod::addMod(a, t, q);
    const Dw v = mod::subMod(a, t, q);
    dst_hi[o0] = u.hi;
    dst_lo[o0] = u.lo;
    dst_hi[o1] = v.hi;
    dst_lo[o1] = v.lo;
}

/** Barrett inverse butterfly at word indices (last stage: n^-1 folded). */
MQX_FORCE_INLINE void
inverseButterflyBarrettAt(const mod::Barrett<uint64_t>& br, const Dw& q,
                          const uint64_t* src_hi, const uint64_t* src_lo,
                          uint64_t* dst_hi, uint64_t* dst_lo,
                          const PeaseTwiddles& tw, const Dw& w, size_t i0,
                          size_t i1, size_t o0, size_t o1, bool last,
                          Reduction red)
{
    const Dw u{src_hi[i0], src_lo[i0]};
    const Dw v{src_hi[i1], src_lo[i1]};
    Dw x0 = mod::addMod(u, v, q);
    Dw x1 = mulBarrett(mod::subMod(u, v, q), last ? mod::toDw(tw.last_diff) : w,
                       br, red);
    if (last)
        x0 = mulBarrett(x0, mod::toDw(tw.last_sum), br, red);
    dst_hi[o0] = x0.hi;
    dst_lo[o0] = x0.lo;
    dst_hi[o1] = x1.hi;
    dst_lo[o1] = x1.lo;
}

// ======================================================================
// The scalar cores (Backend::Scalar, and the SIMD kernels' tails).
// ======================================================================

/**
 * Word of element @p e of lane @p c: IL = 1 is the per-channel layout,
 * anything else the batch layout.
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

/** The scalar cores' default per-pass hook: none. */
struct NoStageHook
{
    void operator()(DConstSpan, int) const {}
};

/** One radix-2 forward stage over butterflies [j0, h) of il lanes. */
template <size_t IL, class A>
inline void
forwardStageScalar(const NttPlan& plan, const PeaseTwiddles& tw, size_t il,
                   const uint64_t* src_hi, const uint64_t* src_lo, DSpan dst,
                   int s, size_t j0, bool last, PeaseShape shape)
{
    const size_t h = plan.half();
    const Dw q = mod::toDw(plan.modulus().value());
    const Dw q2 = mod::shl1Dw(q);
    const auto& br = plan.modulus().barrett();
    for (size_t j = j0; j < h; ++j) {
        const size_t e = twiddleIndex(tw, s, j);
        const Dw w = entry(tw.w, e), wq = entry(tw.wq, e);
        for (size_t c = 0; c < il; ++c) {
            const size_t ia = scalarCoreIndex<IL>(j, c, il);
            const size_t ib = scalarCoreIndex<IL>(j + h, c, il);
            const size_t o0 = scalarCoreIndex<IL>(2 * j, c, il);
            const size_t o1 = scalarCoreIndex<IL>(2 * j + 1, c, il);
            if (shape.red != Reduction::ShoupLazy) {
                forwardButterflyBarrettAt(br, q, src_hi, src_lo, dst.hi,
                                          dst.lo, w, ia, ib, o0, o1,
                                          shape.red);
                continue;
            }
            const auto [u, v] = forwardButterfly<A>(
                q, q2, A::load4q(src_hi, src_lo, ia, q),
                A::load4q(src_hi, src_lo, ib, q), w, wq);
            storeForward<A>(q, q2, dst.hi, dst.lo, o0, u, last);
            storeForward<A>(q, q2, dst.hi, dst.lo, o1, v, last);
        }
    }
}

/** One radix-2 inverse stage over butterflies [j0, h) of il lanes. */
template <size_t IL, class A>
inline void
inverseStageScalar(const NttPlan& plan, const PeaseTwiddles& tw, size_t il,
                   const uint64_t* src_hi, const uint64_t* src_lo, DSpan dst,
                   int s, size_t j0, PeaseShape shape)
{
    const size_t h = plan.half();
    const Dw q = mod::toDw(plan.modulus().value());
    const Dw q2 = mod::shl1Dw(q);
    const auto& br = plan.modulus().barrett();
    const bool last = s == 0;
    // A mirrored table's butterflies take v - u: swap the operands (the
    // sum is symmetric). The last stage reads its own factors.
    const size_t f = tw.mirrored && !last ? 1 : 0;
    for (size_t j = j0; j < h; ++j) {
        const size_t e = twiddleIndex(tw, s, j);
        const Dw w = entry(tw.w, e), wq = entry(tw.wq, e);
        for (size_t c = 0; c < il; ++c) {
            const size_t i0 = scalarCoreIndex<IL>(2 * j + f, c, il);
            const size_t i1 = scalarCoreIndex<IL>(2 * j + 1 - f, c, il);
            const size_t o0 = scalarCoreIndex<IL>(j, c, il);
            const size_t o1 = scalarCoreIndex<IL>(j + h, c, il);
            if (shape.red != Reduction::ShoupLazy)
                inverseButterflyBarrettAt(br, q, src_hi, src_lo, dst.hi,
                                          dst.lo, tw, w, i0, i1, o0, o1, last,
                                          shape.red);
            else
                inverseButterflyAt<A>(q, q2, src_hi, src_lo, dst.hi, dst.lo,
                                      tw, w, wq, i0, i1, o0, o1, last);
        }
    }
}

/** One fused forward pass over stages (s, s+1), passes [p0, n/4). */
template <class A>
inline void
forwardPass4Scalar(const NttPlan& plan, const PeaseTwiddles& tw,
                   const uint64_t* src_hi, const uint64_t* src_lo, DSpan dst,
                   int s, size_t p0, bool last)
{
    const size_t h = plan.half();
    const Dw q = mod::toDw(plan.modulus().value());
    const Dw q2 = mod::shl1Dw(q);
    const size_t mask = (size_t{1} << s) - 1;
    for (size_t p = p0; p < h / 2; ++p) {
        forwardButterfly4<A>(q, q2, src_hi, src_lo, dst.hi, dst.lo, tw.w,
                             tw.wq, tw.offset(s) + (p & mask),
                             tw.offset(s + 1) + 2 * (p & mask), p, h, last);
    }
}

/** One fused inverse pass over inverse stages (s+1, s), passes [p0, n/4). */
template <class A>
inline void
inversePass4Scalar(const NttPlan& plan, const PeaseTwiddles& tw,
                   const uint64_t* src_hi, const uint64_t* src_lo, DSpan dst,
                   int s, size_t p0)
{
    const size_t h = plan.half();
    const Dw q = mod::toDw(plan.modulus().value());
    const Dw q2 = mod::shl1Dw(q);
    for (size_t p = p0; p < h / 2; ++p)
        inverseButterfly4<A>(q, q2, src_hi, src_lo, dst.hi, dst.lo, tw, s, p,
                             h);
}

/**
 * Scalar forward over il lanes (Backend::Scalar): IL = 1 is the
 * per-channel transform (radix-2 or fused radix-4), IL = 0 the
 * runtime-il batch (radix-2). Policy-templated like the butterflies;
 * @p on_stage(dst, s) runs after every pass, s being the last stage it
 * covered, so the range-contract tests check this very loop.
 */
template <size_t IL, class A = mod::DefaultLazyOps,
          class OnStage = NoStageHook>
void
forwardScalarCore(const NttPlan& plan, const PeaseTwiddles& tw, size_t il_rt,
                  DConstSpan in, DSpan out, DSpan scratch, PeaseShape shape,
                  OnStage on_stage = {})
{
    const size_t il = IL ? IL : il_rt;
    const int m = plan.logn();
    const bool fused = IL == 1 && shape.red == Reduction::ShoupLazy &&
                       shape.fusion == StageFusion::Radix4;
    PingPong pp(in, out, scratch, peasePasses(m, fused));
    for (int s = 0; s < m; pp.next()) {
        if (forwardPairAt(fused, s, m)) {
            forwardPass4Scalar<A>(plan, tw, pp.srcHi(), pp.srcLo(), pp.dst(),
                                  s, 0, s + 2 == m);
            s += 2;
        } else {
            forwardStageScalar<IL, A>(plan, tw, il, pp.srcHi(), pp.srcLo(),
                                      pp.dst(), s, 0, s + 1 == m, shape);
            s += 1;
        }
        on_stage(DConstSpan(pp.dst()), s - 1);
    }
}

/** Scalar inverse (see forwardScalarCore): stages high to low, fused
 *  pairs first and a lone stage 0 when logn is odd. */
template <size_t IL, class A = mod::DefaultLazyOps,
          class OnStage = NoStageHook>
void
inverseScalarCore(const NttPlan& plan, const PeaseTwiddles& tw, size_t il_rt,
                  DConstSpan in, DSpan out, DSpan scratch, PeaseShape shape,
                  OnStage on_stage = {})
{
    const size_t il = IL ? IL : il_rt;
    const int m = plan.logn();
    const bool fused = IL == 1 && shape.red == Reduction::ShoupLazy &&
                       shape.fusion == StageFusion::Radix4;
    PingPong pp(in, out, scratch, peasePasses(m, fused));
    for (int s = m - 1; s >= 0; pp.next()) {
        if (fused && s >= 1) {
            inversePass4Scalar<A>(plan, tw, pp.srcHi(), pp.srcLo(), pp.dst(),
                                  s - 1, 0);
            s -= 2;
        } else {
            inverseStageScalar<IL, A>(plan, tw, il, pp.srcHi(), pp.srcLo(),
                                      pp.dst(), s, 0, shape);
            s -= 1;
        }
        on_stage(DConstSpan(pp.dst()), s + 1);
    }
}

// ======================================================================
// SIMD twiddle loads and butterflies.
// ======================================================================

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

/**
 * The twiddles of kLanes consecutive butterflies whose first reads
 * entry @p e: entries e, e + 1, ... (one load), or on a mirrored table
 * (kMirror) e, e - 1, ... (one load with its lanes reversed).
 */
template <class Isa, bool kMirror>
MQX_FORCE_INLINE simd::DV<Isa>
loadTwiddlesV(DConstSpan t, size_t e)
{
    if constexpr (kMirror) {
        const auto x = simd::loadDv<Isa>(t.hi, t.lo, e + 1 - Isa::kLanes);
        return {Isa::reverse(x.hi), Isa::reverse(x.lo)};
    } else {
        return simd::loadDv<Isa>(t.hi, t.lo, e);
    }
}

/**
 * Stage-s twiddles as vectors: butterfly j reads entry twiddleIndex(tw,
 * s, j). While 2^s < kLanes every vector of butterflies reads the same
 * pattern, so it is built once per stage; from 2^s >= kLanes on, a
 * vector's entries are contiguous (j is a multiple of kLanes) and cost
 * one load (loadTwiddlesV). kMirror must match tw.mirrored. at() gives
 * the Shoup form, value() the plain twiddle.
 */
template <class Isa, bool kMirror = false>
class StageTwiddles
{
  public:
    StageTwiddles(const PeaseTwiddles& tw, int s)
        : w_(tw.w), wq_(tw.wq), base_(twiddleIndex(tw, s, 0)),
          mask_((size_t{1} << s) - 1), hoisted_(mask_ + 1 < Isa::kLanes)
    {
        if (!hoisted_)
            return;
        alignas(64) uint64_t th[Isa::kLanes], tl[Isa::kLanes];
        alignas(64) uint64_t qh[Isa::kLanes], ql[Isa::kLanes];
        for (size_t i = 0; i < Isa::kLanes; ++i) {
            const size_t e = index(i);
            th[i] = w_.hi[e];
            tl[i] = w_.lo[e];
            qh[i] = wq_.hi[e];
            ql[i] = wq_.lo[e];
        }
        value_ = simd::loadDv<Isa>(th, tl, 0);
        pattern_ = simd::makeShoupW<Isa>(value_, simd::loadDv<Isa>(qh, ql, 0));
    }

    simd::ShoupW<Isa>
    at(size_t j) const
    {
        if (hoisted_)
            return pattern_;
        const size_t e = index(j);
        return simd::makeShoupW<Isa>(loadTwiddlesV<Isa, kMirror>(w_, e),
                                     loadTwiddlesV<Isa, kMirror>(wq_, e));
    }

    simd::DV<Isa>
    value(size_t j) const
    {
        if (hoisted_)
            return value_;
        return loadTwiddlesV<Isa, kMirror>(w_, index(j));
    }

  private:
    /** twiddleIndex(tw, s, j) from the hoisted entry of butterfly 0. */
    size_t
    index(size_t j) const
    {
        return kMirror ? base_ - (j & mask_) : base_ + (j & mask_);
    }

    DConstSpan w_, wq_;
    size_t base_, mask_;
    bool hoisted_;
    simd::DV<Isa> value_{};
    simd::ShoupW<Isa> pattern_{};
};

/**
 * Second-layer twiddles of the fused pass over stages (s, s+1): pass p
 * runs stage-(s+1) butterflies 2p and 2p + 1, which read adjacent
 * entries (twiddleIndex(tw, s + 1, 2p) + {0, 1}, or - {0, 1} on a
 * mirrored table). Hoisted patterns while 2^s < kLanes, else one load
 * of 2 kLanes contiguous entries split into the even and odd twiddles
 * (mirrored: the split's lane selects also reverse them, for free).
 */
template <class Isa, bool kMirror = false>
class PairTwiddles
{
  public:
    PairTwiddles(const PeaseTwiddles& tw, int s)
        : w_(tw.w), wq_(tw.wq), base_(twiddleIndex(tw, s + 1, 0)),
          mask_((size_t{1} << s) - 1), hoisted_(mask_ + 1 < Isa::kLanes)
    {
        if (!hoisted_)
            return;
        alignas(64) uint64_t t[4][2][Isa::kLanes];
        for (size_t i = 0; i < Isa::kLanes; ++i) {
            for (size_t odd = 0; odd < 2; ++odd) {
                const size_t e = kMirror ? index(i) - odd : index(i) + odd;
                t[0][odd][i] = w_.hi[e];
                t[1][odd][i] = w_.lo[e];
                t[2][odd][i] = wq_.hi[e];
                t[3][odd][i] = wq_.lo[e];
            }
        }
        even_ = simd::makeShoupW<Isa>(simd::loadDv<Isa>(t[0][0], t[1][0], 0),
                                      simd::loadDv<Isa>(t[2][0], t[3][0], 0));
        odd_ = simd::makeShoupW<Isa>(simd::loadDv<Isa>(t[0][1], t[1][1], 0),
                                     simd::loadDv<Isa>(t[2][1], t[3][1], 0));
    }

    void
    at(size_t p, simd::ShoupW<Isa>& even, simd::ShoupW<Isa>& odd) const
    {
        if (hoisted_) {
            even = even_;
            odd = odd_;
            return;
        }
        const size_t e = index(p);
        simd::DV<Isa> we, wo, qe, qo;
        split(w_, e, we, wo);
        split(wq_, e, qe, qo);
        even = simd::makeShoupW<Isa>(we, qe);
        odd = simd::makeShoupW<Isa>(wo, qo);
    }

  private:
    /** twiddleIndex(tw, s + 1, 2p): the even butterfly of pass p. */
    size_t
    index(size_t p) const
    {
        return kMirror ? base_ - 2 * (p & mask_) : base_ + 2 * (p & mask_);
    }

    static MQX_FORCE_INLINE void
    split(DConstSpan t, size_t e, simd::DV<Isa>& even, simd::DV<Isa>& odd)
    {
        if constexpr (kMirror) {
            const size_t b = e + 1 - 2 * Isa::kLanes;
            Isa::deinterleave2Reversed(Isa::loadu(t.hi + b),
                                       Isa::loadu(t.hi + b + Isa::kLanes),
                                       even.hi, odd.hi);
            Isa::deinterleave2Reversed(Isa::loadu(t.lo + b),
                                       Isa::loadu(t.lo + b + Isa::kLanes),
                                       even.lo, odd.lo);
        } else {
            loadDeinterleaved<Isa>(t.hi, t.lo, e, e + Isa::kLanes, even, odd);
        }
    }

    DConstSpan w_, wq_;
    size_t base_, mask_;
    bool hoisted_;
    simd::ShoupW<Isa> even_{}, odd_{};
};

/** [0, 4q) -> [0, q): the forward's last-stage canonicalization. */
template <class Isa>
MQX_FORCE_INLINE simd::DV<Isa>
canonFrom4qV(const simd::ModCtx<Isa>& ctx, const simd::DV<Isa>& x)
{
    return simd::condSubDwV<Isa>(
        ctx, simd::condSubDwV<Isa>(ctx, x, ctx.q2h, ctx.q2l), ctx.qh,
        ctx.ql);
}

/** Vector forwardButterfly: a, b in [0, 4q); canonical when @p last. */
template <class Isa>
MQX_FORCE_INLINE void
forwardButterflyV(const simd::ModCtx<Isa>& ctx, const simd::DV<Isa>& a,
                  const simd::DV<Isa>& b, const simd::ShoupW<Isa>& w,
                  bool last, simd::DV<Isa>& u, simd::DV<Isa>& v)
{
    // a reduced to [0, 2q); t = w * b in [0, 2q).
    const auto a2 = simd::condSubDwV<Isa>(ctx, a, ctx.q2h, ctx.q2l);
    const auto t = simd::mulModShoupV<Isa>(ctx, b, w);
    u = simd::addDwV<Isa>(ctx, a2, t);         // [0, 4q)
    v = simd::subModLazyRawV<Isa>(ctx, a2, t); // (0, 4q)
    if (last) {
        u = canonFrom4qV<Isa>(ctx, u);
        v = canonFrom4qV<Isa>(ctx, v);
    }
}

/** Vector inverseButterfly: u, v in [0, 2q). */
template <class Isa>
MQX_FORCE_INLINE void
inverseButterflyV(const simd::ModCtx<Isa>& ctx, const simd::DV<Isa>& u,
                  const simd::DV<Isa>& v, const simd::ShoupW<Isa>& w,
                  simd::DV<Isa>& x0, simd::DV<Isa>& x1)
{
    x0 = simd::addModLazyV<Isa>(ctx, u, v);
    x1 = simd::mulModShoupV<Isa>(ctx, simd::subModLazyRawV<Isa>(ctx, u, v), w);
}

/** The last-stage factors of an inverse, broadcast once per transform. */
template <class Isa>
struct LastFactorsV
{
    explicit LastFactorsV(const PeaseTwiddles& tw)
        : sum(simd::broadcastShoupW<Isa>(tw.last_sum.hi, tw.last_sum.lo,
                                         tw.last_sum_q.hi, tw.last_sum_q.lo)),
          diff(simd::broadcastShoupW<Isa>(tw.last_diff.hi, tw.last_diff.lo,
                                          tw.last_diff_q.hi,
                                          tw.last_diff_q.lo))
    {
    }
    simd::ShoupW<Isa> sum, diff;
};

/** Vector inverseLastButterfly (n^-1 folded in), canonical out. */
template <class Isa>
MQX_FORCE_INLINE void
inverseLastButterflyV(const simd::ModCtx<Isa>& ctx, const simd::DV<Isa>& u,
                      const simd::DV<Isa>& v, const LastFactorsV<Isa>& f,
                      simd::DV<Isa>& x0, simd::DV<Isa>& x1)
{
    x0 = simd::mulModShoupV<Isa>(ctx, simd::addDwV<Isa>(ctx, u, v), f.sum);
    x0 = simd::condSubDwV<Isa>(ctx, x0, ctx.qh, ctx.ql);
    x1 = simd::mulModShoupV<Isa>(ctx, simd::subModLazyRawV<Isa>(ctx, u, v),
                                 f.diff);
    x1 = simd::condSubDwV<Isa>(ctx, x1, ctx.qh, ctx.ql);
}

/**
 * 4-way interleave built from two rounds of the ISA's interleave2: lane
 * p of (z0, z1, z2, z3) lands at words 4p .. 4p+3 of the 4 kLanes
 * words stored from @p i — the fused radix-4 store y[4p+i] = zi.
 */
template <class Isa>
MQX_FORCE_INLINE void
storeInterleaved4(uint64_t* dst, size_t i, typename Isa::V z0,
                  typename Isa::V z1, typename Isa::V z2, typename Isa::V z3)
{
    typename Isa::V a0, a1, b0, b1, o0, o1, o2, o3;
    Isa::interleave2(z0, z2, a0, a1);
    Isa::interleave2(z1, z3, b0, b1);
    Isa::interleave2(a0, b0, o0, o1);
    Isa::interleave2(a1, b1, o2, o3);
    Isa::storeu(dst + i, o0);
    Isa::storeu(dst + i + Isa::kLanes, o1);
    Isa::storeu(dst + i + 2 * Isa::kLanes, o2);
    Isa::storeu(dst + i + 3 * Isa::kLanes, o3);
}

/** Exact inverse of storeInterleaved4 (the fused radix-4 inverse load). */
template <class Isa>
MQX_FORCE_INLINE void
loadDeinterleaved4(const uint64_t* src, size_t i, typename Isa::V& z0,
                   typename Isa::V& z1, typename Isa::V& z2,
                   typename Isa::V& z3)
{
    typename Isa::V a0, a1, b0, b1;
    Isa::deinterleave2(Isa::loadu(src + i), Isa::loadu(src + i + Isa::kLanes),
                       a0, b0);
    Isa::deinterleave2(Isa::loadu(src + i + 2 * Isa::kLanes),
                       Isa::loadu(src + i + 3 * Isa::kLanes), a1, b1);
    Isa::deinterleave2(a0, a1, z0, z2);
    Isa::deinterleave2(b0, b1, z1, z3);
}

// ======================================================================
// SIMD sweeps of one channel. Each vector loop covers whole vectors of
// butterflies; the scalar cores' loops finish the rest (only transforms
// with n/2 or n/4 below kLanes have one).
// ======================================================================

/**
 * Runs @p loop(std::true_type) for Reduction::BarrettKaratsuba and
 * loop(std::false_type) for Barrett: the Barrett stages' product, a
 * template argument so no multiply branches on it. IFMA ISAs have one
 * limb product and no Karatsuba copy.
 */
template <class Isa, class Loop>
MQX_FORCE_INLINE void
withBarrettProduct(Reduction red, Loop&& loop)
{
    if constexpr (!Isa::kHasIfma) {
        if (red == Reduction::BarrettKaratsuba)
            return loop(std::true_type{});
    }
    loop(std::false_type{});
}

template <class Isa>
void
forwardStageV(const simd::ModCtx<Isa>& ctx, const NttPlan& plan,
              const PeaseTwiddles& tw, const PingPong& pp, int s, bool last,
              PeaseShape shape)
{
    const size_t h = plan.half();
    const uint64_t* src_hi = pp.srcHi();
    const uint64_t* src_lo = pp.srcLo();
    const DSpan dst = pp.dst();
    StageTwiddles<Isa> tws(tw, s);
    size_t j = 0;
    if (shape.red != Reduction::ShoupLazy) {
        withBarrettProduct<Isa>(shape.red, [&](auto karatsuba) {
            constexpr bool kKaratsuba = decltype(karatsuba)::value;
            for (; j + Isa::kLanes <= h; j += Isa::kLanes) {
                const auto a = simd::loadDv<Isa>(src_hi, src_lo, j);
                const auto t = simd::mulModV<Isa, kKaratsuba>(
                    ctx, simd::loadDv<Isa>(src_hi, src_lo, j + h),
                    tws.value(j));
                storeInterleaved<Isa>(dst, 2 * j, 2 * j + Isa::kLanes,
                                      simd::addModV<Isa>(ctx, a, t),
                                      simd::subModV<Isa>(ctx, a, t));
            }
        });
    } else {
        for (; j + Isa::kLanes <= h; j += Isa::kLanes) {
            simd::DV<Isa> u, v;
            forwardButterflyV<Isa>(ctx, simd::loadDv<Isa>(src_hi, src_lo, j),
                                   simd::loadDv<Isa>(src_hi, src_lo, j + h),
                                   tws.at(j), last, u, v);
            storeInterleaved<Isa>(dst, 2 * j, 2 * j + Isa::kLanes, u, v);
        }
    }
    forwardStageScalar<1, mod::DefaultLazyOps>(plan, tw, 1, src_hi, src_lo,
                                               dst, s, j, last, shape);
}

/**
 * The inverse sweeps carry kMirror == tw.mirrored as a template
 * argument: a mirrored table's butterflies (all but the last stage's)
 * take v - u, so their operands trade places at no run-time cost.
 */
template <class Isa, bool kMirror>
void
inverseStageV(const simd::ModCtx<Isa>& ctx, const NttPlan& plan,
              const PeaseTwiddles& tw, const PingPong& pp, int s,
              PeaseShape shape)
{
    const size_t h = plan.half();
    const uint64_t* src_hi = pp.srcHi();
    const uint64_t* src_lo = pp.srcLo();
    const DSpan dst = pp.dst();
    StageTwiddles<Isa, kMirror> tws(tw, s);
    const LastFactorsV<Isa> lastf(tw);
    size_t j = 0;
    if (shape.red != Reduction::ShoupLazy) {
        const simd::DV<Isa> sum{Isa::set1(tw.last_sum.hi),
                                Isa::set1(tw.last_sum.lo)};
        const simd::DV<Isa> diff{Isa::set1(tw.last_diff.hi),
                                 Isa::set1(tw.last_diff.lo)};
        const bool swap = kMirror && s != 0;
        withBarrettProduct<Isa>(shape.red, [&](auto karatsuba) {
            constexpr bool kKaratsuba = decltype(karatsuba)::value;
            for (; j + Isa::kLanes <= h; j += Isa::kLanes) {
                simd::DV<Isa> u, v;
                loadDeinterleaved<Isa>(src_hi, src_lo, 2 * j,
                                       2 * j + Isa::kLanes, u, v);
                auto x0 = simd::addModV<Isa>(ctx, u, v);
                auto x1 = simd::mulModV<Isa, kKaratsuba>(
                    ctx, simd::subModV<Isa>(ctx, swap ? v : u, swap ? u : v),
                    s == 0 ? diff : tws.value(j));
                if (s == 0)
                    x0 = simd::mulModV<Isa, kKaratsuba>(ctx, x0, sum);
                simd::storeDv<Isa>(dst.hi, dst.lo, j, x0);
                simd::storeDv<Isa>(dst.hi, dst.lo, j + h, x1);
            }
        });
    } else {
        for (; j + Isa::kLanes <= h; j += Isa::kLanes) {
            simd::DV<Isa> u, v, x0, x1;
            loadDeinterleaved<Isa>(src_hi, src_lo, 2 * j, 2 * j + Isa::kLanes,
                                   u, v);
            if (s == 0)
                inverseLastButterflyV<Isa>(ctx, u, v, lastf, x0, x1);
            else
                inverseButterflyV<Isa>(ctx, kMirror ? v : u, kMirror ? u : v,
                                       tws.at(j), x0, x1);
            simd::storeDv<Isa>(dst.hi, dst.lo, j, x0);
            simd::storeDv<Isa>(dst.hi, dst.lo, j + h, x1);
        }
    }
    inverseStageScalar<1, mod::DefaultLazyOps>(plan, tw, 1, src_hi, src_lo,
                                               dst, s, j, shape);
}

template <class Isa>
void
forwardPass4V(const simd::ModCtx<Isa>& ctx, const NttPlan& plan,
              const PeaseTwiddles& tw, const PingPong& pp, int s, bool last)
{
    const size_t h = plan.half();
    const size_t h2 = h / 2;
    const uint64_t* src_hi = pp.srcHi();
    const uint64_t* src_lo = pp.srcLo();
    const DSpan dst = pp.dst();
    StageTwiddles<Isa> tw0(tw, s);
    PairTwiddles<Isa> tw1(tw, s);
    size_t p = 0;
    for (; p + Isa::kLanes <= h2; p += Isa::kLanes) {
        // Live-range discipline: finish the first layer before loading
        // the second layer's twiddles — the fused body otherwise
        // overflows the vector register file.
        const auto w0 = tw0.at(p);
        simd::DV<Isa> u0, v0, u1, v1, z0, z1, z2, z3;
        forwardButterflyV<Isa>(ctx, simd::loadDv<Isa>(src_hi, src_lo, p),
                               simd::loadDv<Isa>(src_hi, src_lo, p + h), w0,
                               false, u0, v0);
        forwardButterflyV<Isa>(ctx, simd::loadDv<Isa>(src_hi, src_lo, p + h2),
                               simd::loadDv<Isa>(src_hi, src_lo, p + h + h2),
                               w0, false, u1, v1);
        simd::ShoupW<Isa> wa, wb;
        tw1.at(p, wa, wb);
        forwardButterflyV<Isa>(ctx, u0, u1, wa, last, z0, z1);
        forwardButterflyV<Isa>(ctx, v0, v1, wb, last, z2, z3);
        storeInterleaved4<Isa>(dst.hi, 4 * p, z0.hi, z1.hi, z2.hi, z3.hi);
        storeInterleaved4<Isa>(dst.lo, 4 * p, z0.lo, z1.lo, z2.lo, z3.lo);
    }
    forwardPass4Scalar<mod::DefaultLazyOps>(plan, tw, src_hi, src_lo, dst, s,
                                            p, last);
}

template <class Isa, bool kMirror>
void
inversePass4V(const simd::ModCtx<Isa>& ctx, const NttPlan& plan,
              const PeaseTwiddles& tw, const PingPong& pp, int s)
{
    const size_t h = plan.half();
    const size_t h2 = h / 2;
    const uint64_t* src_hi = pp.srcHi();
    const uint64_t* src_lo = pp.srcLo();
    const DSpan dst = pp.dst();
    StageTwiddles<Isa, kMirror> tw0(tw, s);
    PairTwiddles<Isa, kMirror> tw1(tw, s);
    const LastFactorsV<Isa> lastf(tw);
    size_t p = 0;
    for (; p + Isa::kLanes <= h2; p += Isa::kLanes) {
        simd::DV<Isa> z0, z1, z2, z3, y0, yh0, y1, yh1, x0, x1, x2, x3;
        loadDeinterleaved4<Isa>(src_hi, 4 * p, z0.hi, z1.hi, z2.hi, z3.hi);
        loadDeinterleaved4<Isa>(src_lo, 4 * p, z0.lo, z1.lo, z2.lo, z3.lo);
        simd::ShoupW<Isa> wa, wb;
        tw1.at(p, wa, wb);
        // First layer (inverse stage s+1): butterflies 2p and 2p + 1.
        inverseButterflyV<Isa>(ctx, kMirror ? z1 : z0, kMirror ? z0 : z1, wa,
                               y0, yh0);
        inverseButterflyV<Isa>(ctx, kMirror ? z3 : z2, kMirror ? z2 : z3, wb,
                               y1, yh1);
        // Second layer (inverse stage s): butterflies p and p + h/2.
        if (s == 0) {
            inverseLastButterflyV<Isa>(ctx, y0, y1, lastf, x0, x2);
            inverseLastButterflyV<Isa>(ctx, yh0, yh1, lastf, x1, x3);
        } else {
            const auto w0 = tw0.at(p);
            inverseButterflyV<Isa>(ctx, kMirror ? y1 : y0, kMirror ? y0 : y1,
                                   w0, x0, x2);
            inverseButterflyV<Isa>(ctx, kMirror ? yh1 : yh0,
                                   kMirror ? yh0 : yh1, w0, x1, x3);
        }
        simd::storeDv<Isa>(dst.hi, dst.lo, p, x0);
        simd::storeDv<Isa>(dst.hi, dst.lo, p + h2, x1);
        simd::storeDv<Isa>(dst.hi, dst.lo, p + h, x2);
        simd::storeDv<Isa>(dst.hi, dst.lo, p + h + h2, x3);
    }
    inversePass4Scalar<mod::DefaultLazyOps>(plan, tw, src_hi, src_lo, dst, s,
                                            p);
}

// ======================================================================
// IL-lane batch sweeps (radix-2, Shoup-lazy, schoolbook): each twiddle
// vector is loaded once and reused across the lanes of the channel-major
// tiled layout of core/batch_layout.h (element e of lane c at word
// batchIndex(e, c, il); kLanes divides the 8-word tile for every ISA).
// ======================================================================

/** Forward batch sweeps. IL = 0 is the runtime-il loop; IL in {4, 8}
 *  unrolls the lane loop around the hoisted twiddle registers. */
template <class Isa, size_t IL>
void
forwardBatchCore(const NttPlan& plan, const PeaseTwiddles& tw, size_t il_rt,
                 DConstSpan in, DSpan out, DSpan scratch)
{
    const size_t il = IL ? IL : il_rt;
    constexpr size_t w8 = BatchLayout::kTileWords;
    const size_t h = plan.half();
    const int m = plan.logn();
    simd::ModCtx<Isa> ctx = simd::makeModCtx<Isa>(plan.modulus());
    const size_t pf = core::kPrefetchRows * il * w8;

    PingPong pp(in, out, scratch, m);
    for (int s = 0; s < m; ++s, pp.next()) {
        const bool last = s == m - 1;
        const uint64_t* src_hi = pp.srcHi();
        const uint64_t* src_lo = pp.srcLo();
        const DSpan dst = pp.dst();
        StageTwiddles<Isa> tws(tw, s);
        // h >= 8 and kLanes divides 8, so the lane loop has no tail.
        for (size_t j = 0; j + Isa::kLanes <= h; j += Isa::kLanes) {
            const auto wj = tws.at(j);
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
                forwardButterflyV<Isa>(
                    ctx, simd::loadDv<Isa>(src_hi, src_lo, ja + c * w8),
                    simd::loadDv<Isa>(src_hi, src_lo, jb + c * w8), wj, last,
                    u, v);
                storeInterleaved<Isa>(dst, jo0 + c * w8, jo1 + c * w8, u, v);
            }
        }
    }
}

/**
 * Inverse batch sweeps (see the forward core) on the merged table, read
 * mirrored (the batch kernels serve the negacyclic tables only): the
 * reversed twiddle vector of each j is reused across the il lanes, and
 * every butterfly but the last stage's takes v - u.
 */
template <class Isa, size_t IL>
void
inverseBatchCore(const NttPlan& plan, const PeaseTwiddles& tw, size_t il_rt,
                 DConstSpan in, DSpan out, DSpan scratch)
{
    const size_t il = IL ? IL : il_rt;
    constexpr size_t w8 = BatchLayout::kTileWords;
    const size_t h = plan.half();
    const int m = plan.logn();
    simd::ModCtx<Isa> ctx = simd::makeModCtx<Isa>(plan.modulus());
    const size_t pf = core::kPrefetchRows * il * w8;
    const LastFactorsV<Isa> lastf(tw);

    PingPong pp(in, out, scratch, m);
    for (int s = m - 1; s >= 0; --s, pp.next()) {
        const uint64_t* src_hi = pp.srcHi();
        const uint64_t* src_lo = pp.srcLo();
        const DSpan dst = pp.dst();
        StageTwiddles<Isa, true> tws(tw, s);
        for (size_t j = 0; j + Isa::kLanes <= h; j += Isa::kLanes) {
            const auto wj = tws.at(j);
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
                if (s == 0)
                    inverseLastButterflyV<Isa>(ctx, u, v, lastf, x0, x1);
                else
                    inverseButterflyV<Isa>(ctx, v, u, wj, x0, x1);
                simd::storeDv<Isa>(dst.hi, dst.lo, jx0 + c * w8, x0);
                simd::storeDv<Isa>(dst.hi, dst.lo, jx1 + c * w8, x1);
            }
        }
    }
}

} // namespace detail

// ======================================================================
// Entry templates: every tier TU instantiates these four.
// ======================================================================

namespace detail {

/** The sweeps of inverseImpl with the table's mirroring fixed. */
template <class Isa, bool kMirror>
void
inverseSweeps(const NttPlan& plan, const PeaseTwiddles& tw, DConstSpan in,
              DSpan out, DSpan scratch, PeaseShape shape)
{
    const int m = plan.logn();
    const simd::ModCtx<Isa> ctx = simd::makeModCtx<Isa>(plan.modulus());
    const bool fused = shape.red == Reduction::ShoupLazy &&
                       shape.fusion == StageFusion::Radix4;
    PingPong pp(in, out, scratch, peasePasses(m, fused));
    for (int s = m - 1; s >= 0; pp.next()) {
        if (fused && s >= 1) {
            inversePass4V<Isa, kMirror>(ctx, plan, tw, pp, s - 1);
            s -= 2;
        } else {
            inverseStageV<Isa, kMirror>(ctx, plan, tw, pp, s, shape);
            s -= 1;
        }
    }
}

} // namespace detail

/**
 * Forward transform of one channel: canonical natural-order input,
 * canonical bit-reversed output, in any PeaseShape (Barrett runs
 * radix-2 whatever the fusion).
 */
template <class Isa>
void
forwardImpl(const NttPlan& plan, const detail::PeaseTwiddles& tw,
            DConstSpan in, DSpan out, DSpan scratch, detail::PeaseShape shape)
{
    detail::validateNttArgs(plan, in, out, scratch);
    const int m = plan.logn();
    const simd::ModCtx<Isa> ctx = simd::makeModCtx<Isa>(plan.modulus());
    const bool fused = shape.red == Reduction::ShoupLazy &&
                       shape.fusion == StageFusion::Radix4;
    detail::PingPong pp(in, out, scratch, detail::peasePasses(m, fused));
    for (int s = 0; s < m; pp.next()) {
        if (detail::forwardPairAt(fused, s, m)) {
            detail::forwardPass4V<Isa>(ctx, plan, tw, pp, s, s + 2 == m);
            s += 2;
        } else {
            detail::forwardStageV<Isa>(ctx, plan, tw, pp, s, s + 1 == m,
                                       shape);
            s += 1;
        }
    }
}

/**
 * Inverse transform of one channel: canonical bit-reversed input,
 * canonical natural-order output, n^-1 folded into the last stage.
 */
template <class Isa>
void
inverseImpl(const NttPlan& plan, const detail::PeaseTwiddles& tw,
            DConstSpan in, DSpan out, DSpan scratch, detail::PeaseShape shape)
{
    detail::validateNttArgs(plan, in, out, scratch);
    if (tw.mirrored)
        detail::inverseSweeps<Isa, true>(plan, tw, in, out, scratch, shape);
    else
        detail::inverseSweeps<Isa, false>(plan, tw, in, out, scratch, shape);
}

/** Forward over il lanes packed by batch::packLanes; per lane
 *  word-identical to forwardImpl. */
template <class Isa>
void
forwardBatchImpl(const NttPlan& plan, const detail::PeaseTwiddles& tw,
                 size_t il, DConstSpan in, DSpan out, DSpan scratch)
{
    detail::validateBatchNttArgs(plan, il, in, out, scratch);
    switch (il) {
    case 4:
        detail::forwardBatchCore<Isa, 4>(plan, tw, il, in, out, scratch);
        break;
    case 8:
        detail::forwardBatchCore<Isa, 8>(plan, tw, il, in, out, scratch);
        break;
    default:
        detail::forwardBatchCore<Isa, 0>(plan, tw, il, in, out, scratch);
        break;
    }
}

/** Batch counterpart of inverseImpl, on the merged (mirrored) table. */
template <class Isa>
void
inverseBatchImpl(const NttPlan& plan, const detail::PeaseTwiddles& tw,
                 size_t il, DConstSpan in, DSpan out, DSpan scratch)
{
    detail::validateBatchNttArgs(plan, il, in, out, scratch);
    switch (il) {
    case 4:
        detail::inverseBatchCore<Isa, 4>(plan, tw, il, in, out, scratch);
        break;
    case 8:
        detail::inverseBatchCore<Isa, 8>(plan, tw, il, in, out, scratch);
        break;
    default:
        detail::inverseBatchCore<Isa, 0>(plan, tw, il, in, out, scratch);
        break;
    }
}

/**
 * The paper's original kernel shape on the cyclic plan: Barrett
 * reduction, radix-2, schoolbook products (Listing 2) — the kernel the
 * PISA Table 5 validation pairs time with and without their proxy.
 */
template <class Isa>
void
barrettForwardImpl(const NttPlan& plan, DConstSpan in, DSpan out,
                   DSpan scratch)
{
    forwardImpl<Isa>(plan, detail::forwardTwiddles(plan), in, out, scratch,
                     {Reduction::Barrett, StageFusion::Radix2});
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
                                  mod::DW<uint64_t>{tq.hi[i], tq.lo[i]}, q);
        c.hi[i] = r.hi;
        c.lo[i] = r.lo;
    }
}

} // namespace ntt
} // namespace mqx
