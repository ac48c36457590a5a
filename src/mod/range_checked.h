/**
 * @file
 * Range-contract type system for the Shoup/Harvey lazy-reduction
 * pipeline (PR 4-5).
 *
 * The lazy butterflies are correct only under a range discipline that
 * used to live in comments: operands sit in [0, 2q) between stages,
 * transients reach [0, 4q), twiddles are canonical (< q), and
 * 4q < beta = 2^(2w) (guaranteed by the Barrett headroom requirement
 * bits(q) <= 2w - 4). This header turns that discipline into types:
 *
 *     Lazy<Bound::Q>     — canonical value in [0, q)
 *     Lazy<Bound::TwoQ>  — lazy operand in [0, 2q)
 *     Lazy<Bound::FourQ> — butterfly transient in [0, 4q)
 *
 * with the contract algebra expressed as overloads over those types:
 *
 *     addModLazy    : TwoQ  + TwoQ          -> FourQ   (raw sum)
 *     subModLazyRaw : TwoQ  - TwoQ  (+2q)   -> FourQ   (never negative)
 *     condSubDw     : FourQ (-2q if >= 2q)  -> TwoQ
 *     mulModShoup   : FourQ x (w < q)       -> TwoQ    (Shoup quotient)
 *     canonicalize  : TwoQ  (-q if >= q)    -> Q
 *
 * Widening (Q -> TwoQ -> FourQ) is implicit; every other mixing of
 * bounds refuses to compile. Feeding a transient back into an add
 * without the conditional subtract, multiplying by a non-canonical
 * twiddle, or double-subtracting are all type errors — the negative
 * compile tests in tests/fixtures/range_violation.cc pin this down.
 *
 * Two arithmetic policies let the SAME butterfly source instantiate
 * both ways (see pease_impl.h):
 *
 *     LazyOps        — plain DW<W> values, zero overhead; the compiled
 *                      production arithmetic, bit-for-bit the PR 4-5
 *                      kernels.
 *     CheckedLazyOps — Lazy<Bound>-typed values; compiles the range
 *                      contracts. With MQX_RANGE_AUDIT additionally
 *                      asserts every intermediate against its static
 *                      bound using the live q at runtime.
 *
 * MQX_RANGE_AUDIT (CMake option, off by default) switches the default
 * policy of the scalar kernels to CheckedLazyOps, so the whole NTT /
 * negacyclic / Shoup test suite runs with every scalar-path
 * intermediate dynamically bound-checked. Release builds keep LazyOps
 * and pay nothing.
 */
#pragma once

#include <cstdio>
#include <cstdlib>

#include "mod/dword_ops.h"

namespace mqx {
namespace mod {

/** Static range bound, as a multiple of the modulus q. */
enum class Bound : unsigned
{
    Q = 1,     ///< canonical: value in [0, q)
    TwoQ = 2,  ///< lazy operand: value in [0, 2q)
    FourQ = 4, ///< butterfly transient: value in [0, 4q)
};

/** The bound as its multiple-of-q factor. */
constexpr unsigned
boundMultiple(Bound b)
{
    return static_cast<unsigned>(b);
}

namespace detail {

/**
 * MQX_RANGE_AUDIT hook: verify v < multiple * q with the live q.
 * Compiled out entirely (and never called) unless the audit mode is on;
 * kept out-of-line-able so the checked algebra stays readable.
 */
template <typename W>
inline void
auditBound(const DW<W>& v, Bound bound, const DW<W>& q, const char* where)
{
#if defined(MQX_RANGE_AUDIT) && MQX_RANGE_AUDIT
    // bound * q never overflows the double word: q has >= 4 bits of
    // headroom (Barrett requirement), so 4q < 2^(2w).
    DW<W> limit = q;
    for (unsigned m = 1; m < boundMultiple(bound); m <<= 1)
        limit = shl1Dw(limit);
    if (!(v < limit)) {
        std::fprintf(stderr,
                     "MQX_RANGE_AUDIT violation in %s: value hi=%llx lo=%llx "
                     "exceeds %ux q (q hi=%llx lo=%llx)\n",
                     where, static_cast<unsigned long long>(v.hi),
                     static_cast<unsigned long long>(v.lo),
                     boundMultiple(bound),
                     static_cast<unsigned long long>(q.hi),
                     static_cast<unsigned long long>(q.lo));
        std::abort();
    }
#else
    (void)v;
    (void)bound;
    (void)q;
    (void)where;
#endif
}

} // namespace detail

/**
 * A double word carrying its range bound in the type. Construction is
 * explicit (fromRaw trusts the caller and is the only entry point from
 * untyped storage); widening to a looser bound is implicit; every
 * arithmetic transition goes through the contract algebra below.
 * Zero overhead: the only member is the DW value, every operation is
 * constexpr-inlined, and the audit hook is compiled out unless
 * MQX_RANGE_AUDIT is defined.
 */
template <Bound B, typename W = uint64_t>
class Lazy
{
  public:
    static constexpr Bound kBound = B;
    using Word = W;

    /**
     * Wrap an untyped value, asserting (audit mode) that it honours the
     * declared bound. The trusted boundary: loads from storage whose
     * range is established by the kernel's own invariants.
     */
    static constexpr Lazy
    fromRaw(const DW<W>& v)
    {
        return Lazy(v);
    }

    /** Same, with an audit check against the live q. */
    static constexpr Lazy
    fromRaw(const DW<W>& v, const DW<W>& q, const char* where)
    {
        detail::auditBound(v, B, q, where);
        return Lazy(v);
    }

    /** Implicit WIDENING from a tighter bound (Q -> TwoQ -> FourQ). */
    template <Bound B2>
        requires(boundMultiple(B2) < boundMultiple(B))
    constexpr Lazy(const Lazy<B2, W>& tighter) : v_(tighter.raw())
    {
    }

    /** The untyped value (stores, interop with the unchecked kernels). */
    constexpr const DW<W>& raw() const { return v_; }

  private:
    explicit constexpr Lazy(const DW<W>& v) : v_(v) {}
    DW<W> v_{};
};

// ---------------------------------------------------------------------------
// The contract algebra. Each function takes the live q (and 2q where the
// operation uses it) so the audit mode can verify bounds; the unchecked
// arithmetic underneath is EXACTLY the dword_ops.h lazy pipeline.
// ---------------------------------------------------------------------------

/**
 * Lazy butterfly sum: [0,2q) + [0,2q) -> [0,4q). The raw double-word
 * add — no reduction — so the result is a transient that must pass
 * through condSubDw() or mulModShoup() before the next stage.
 */
template <typename W>
constexpr Lazy<Bound::FourQ, W>
addModLazy(const Lazy<Bound::TwoQ, W>& a, const Lazy<Bound::TwoQ, W>& b,
           const DW<W>& q)
{
    detail::auditBound(a.raw(), Bound::TwoQ, q, "addModLazy(a)");
    detail::auditBound(b.raw(), Bound::TwoQ, q, "addModLazy(b)");
    DW<W> t;
    addDw(a.raw(), b.raw(), t);
    auto r = Lazy<Bound::FourQ, W>::fromRaw(t);
    detail::auditBound(r.raw(), Bound::FourQ, q, "addModLazy(result)");
    return r;
}

/**
 * Lazy butterfly difference: a - b + 2q in (0, 4q) for a, b in [0,2q).
 * The +2q bias keeps the raw subtraction non-negative without a branch;
 * the Shoup multiply (or a condSubDw) absorbs the bias.
 */
template <typename W>
constexpr Lazy<Bound::FourQ, W>
subModLazyRaw(const Lazy<Bound::TwoQ, W>& a, const Lazy<Bound::TwoQ, W>& b,
              const DW<W>& q2, const DW<W>& q)
{
    detail::auditBound(a.raw(), Bound::TwoQ, q, "subModLazyRaw(a)");
    detail::auditBound(b.raw(), Bound::TwoQ, q, "subModLazyRaw(b)");
    DW<W> d;
    addDw(a.raw(), q2, d);
    subDw(d, b.raw(), d);
    auto r = Lazy<Bound::FourQ, W>::fromRaw(d);
    detail::auditBound(r.raw(), Bound::FourQ, q, "subModLazyRaw(result)");
    return r;
}

/**
 * Conditional subtract of 2q: the FourQ -> TwoQ transition between
 * butterfly stages. (The only legal reduction of a transient besides
 * the Shoup multiply.)
 */
template <typename W>
constexpr Lazy<Bound::TwoQ, W>
condSubDw(const Lazy<Bound::FourQ, W>& x, const DW<W>& q2, const DW<W>& q)
{
    detail::auditBound(x.raw(), Bound::FourQ, q, "condSubDw(x)");
    auto r = Lazy<Bound::TwoQ, W>::fromRaw(condSubDw(x.raw(), q2));
    detail::auditBound(r.raw(), Bound::TwoQ, q, "condSubDw(result)");
    return r;
}

/**
 * Final canonicalization: TwoQ -> Q via one conditional subtract of q.
 * Fused into the last forward stage / the inverse n^-1 scaling pass.
 */
template <typename W>
constexpr Lazy<Bound::Q, W>
canonicalize(const Lazy<Bound::TwoQ, W>& x, const DW<W>& q)
{
    detail::auditBound(x.raw(), Bound::TwoQ, q, "canonicalize(x)");
    auto r = Lazy<Bound::Q, W>::fromRaw(condSubDw(x.raw(), q));
    detail::auditBound(r.raw(), Bound::Q, q, "canonicalize(result)");
    return r;
}

/**
 * Shoup/Harvey multiply by a CANONICAL fixed multiplicand w < q with
 * precomputed quotient wq: any transient a < 4q in, [0, 2q) out. The
 * twiddle's canonicity is part of the contract — the w parameter only
 * accepts Lazy<Q> (plan tables are canonical by construction), which is
 * what makes "multiplied by an unreduced value" a compile error.
 */
template <typename W>
constexpr Lazy<Bound::TwoQ, W>
mulModShoup(const Lazy<Bound::FourQ, W>& a, const Lazy<Bound::Q, W>& w,
            const DW<W>& wq, const DW<W>& q)
{
    detail::auditBound(a.raw(), Bound::FourQ, q, "mulModShoup(a)");
    detail::auditBound(w.raw(), Bound::Q, q, "mulModShoup(w)");
    auto r =
        Lazy<Bound::TwoQ, W>::fromRaw(mulModShoup(a.raw(), w.raw(), wq, q));
    detail::auditBound(r.raw(), Bound::TwoQ, q, "mulModShoup(result)");
    return r;
}

// ---------------------------------------------------------------------------
// Arithmetic policies: the scalar lazy butterfly cores in pease_impl.h
// are templated over one of these, so the identical source instantiates
// as the zero-overhead production kernel (LazyOps) and as the
// contract-checked kernel (CheckedLazyOps).
// ---------------------------------------------------------------------------

/**
 * Unchecked policy: all value types are plain DW<uint64_t>; each
 * operation is exactly the dword_ops.h call the PR 4-5 kernels made.
 */
struct LazyOps
{
    using V2q = DW<uint64_t>; ///< stage operand, [0, 2q)
    using V4q = DW<uint64_t>; ///< transient, [0, 4q)
    using Vq = DW<uint64_t>;  ///< canonical, [0, q)

    static constexpr V2q
    load2q(const uint64_t* hi, const uint64_t* lo, size_t i,
           const DW<uint64_t>& /*q*/)
    {
        return DW<uint64_t>{hi[i], lo[i]};
    }

    static constexpr V4q
    load4q(const uint64_t* hi, const uint64_t* lo, size_t i,
           const DW<uint64_t>& /*q*/)
    {
        return DW<uint64_t>{hi[i], lo[i]};
    }

    static constexpr Vq
    twiddle(const DW<uint64_t>& w, const DW<uint64_t>& /*q*/)
    {
        return w;
    }

    static constexpr V4q
    add(const V2q& a, const V2q& b, const DW<uint64_t>& /*q*/)
    {
        DW<uint64_t> t;
        addDw(a, b, t);
        return t;
    }

    static constexpr V4q
    subRaw(const V2q& a, const V2q& b, const DW<uint64_t>& q2,
           const DW<uint64_t>& /*q*/)
    {
        DW<uint64_t> d;
        addDw(a, q2, d);
        subDw(d, b, d);
        return d;
    }

    static constexpr V2q
    condSub2q(const V4q& x, const DW<uint64_t>& q2, const DW<uint64_t>& /*q*/)
    {
        return condSubDw(x, q2);
    }

    static constexpr Vq
    canon(const V2q& x, const DW<uint64_t>& q)
    {
        return condSubDw(x, q);
    }

    static constexpr V2q
    mulShoup(const V4q& a, const Vq& w, const DW<uint64_t>& wq,
             const DW<uint64_t>& q)
    {
        return mulModShoup(a, w, wq, q);
    }

    static constexpr void
    store(uint64_t* hi, uint64_t* lo, size_t i, const DW<uint64_t>& v)
    {
        hi[i] = v.hi;
        lo[i] = v.lo;
    }
};

/**
 * Contract-checked policy: values carry their bound in the type, every
 * transition runs through the Lazy algebra above (and, under
 * MQX_RANGE_AUDIT, is dynamically asserted against the live q). The
 * underlying arithmetic is the same dword_ops.h pipeline, so
 * instantiating a kernel with this policy is bit-identical to LazyOps.
 */
struct CheckedLazyOps
{
    using V2q = Lazy<Bound::TwoQ>;
    using V4q = Lazy<Bound::FourQ>;
    using Vq = Lazy<Bound::Q>;

    static constexpr V2q
    load2q(const uint64_t* hi, const uint64_t* lo, size_t i,
           const DW<uint64_t>& q)
    {
        return V2q::fromRaw(DW<uint64_t>{hi[i], lo[i]}, q, "load2q");
    }

    static constexpr V4q
    load4q(const uint64_t* hi, const uint64_t* lo, size_t i,
           const DW<uint64_t>& q)
    {
        return V4q::fromRaw(DW<uint64_t>{hi[i], lo[i]}, q, "load4q");
    }

    static constexpr Vq
    twiddle(const DW<uint64_t>& w, const DW<uint64_t>& q)
    {
        return Vq::fromRaw(w, q, "twiddle");
    }

    static constexpr V4q
    add(const V2q& a, const V2q& b, const DW<uint64_t>& q)
    {
        return addModLazy(a, b, q);
    }

    static constexpr V4q
    subRaw(const V2q& a, const V2q& b, const DW<uint64_t>& q2,
           const DW<uint64_t>& q)
    {
        return subModLazyRaw(a, b, q2, q);
    }

    static constexpr V2q
    condSub2q(const V4q& x, const DW<uint64_t>& q2, const DW<uint64_t>& q)
    {
        return condSubDw(x, q2, q);
    }

    static constexpr Vq
    canon(const V2q& x, const DW<uint64_t>& q)
    {
        return canonicalize(x, q);
    }

    static constexpr V2q
    mulShoup(const V4q& a, const Vq& w, const DW<uint64_t>& wq,
             const DW<uint64_t>& q)
    {
        return mulModShoup(a, w, wq, q);
    }

    template <Bound B>
    static constexpr void
    store(uint64_t* hi, uint64_t* lo, size_t i, const Lazy<B>& v)
    {
        hi[i] = v.raw().hi;
        lo[i] = v.raw().lo;
    }
};

/**
 * The policy the production scalar kernels instantiate. MQX_RANGE_AUDIT
 * builds run every scalar-path butterfly through the checked algebra
 * with dynamic bound assertions; regular builds compile the unchecked
 * policy (identical codegen to the pre-contract kernels).
 */
#if defined(MQX_RANGE_AUDIT) && MQX_RANGE_AUDIT
using DefaultLazyOps = CheckedLazyOps;
#else
using DefaultLazyOps = LazyOps;
#endif

} // namespace mod
} // namespace mqx
