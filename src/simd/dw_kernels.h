/**
 * @file
 * Double-word (128-bit) modular arithmetic kernels over the SIMD ISA
 * policy concept. Written once, instantiated for every backend:
 * PortableIsa, Avx2Isa, Avx512Isa, and the MqxIsa variants.
 *
 * Residues are carried as split hi/lo vectors (DV): one vector of high
 * words and one of low words per operand — eight 128-bit residues per
 * AVX-512 vector pair (paper Section 3.2, Figure 2).
 *
 * Two kernel shapes exist for add/sub, mirroring the paper:
 *  - addModBasic / subModBasic: the hand-tuned AVX-512 dataflow of
 *    Listing 2, using compares + masked ops (no carry abstractions).
 *    Variable names follow the listing (t30, t28, t29, a31, a35, ...).
 *  - addModMqx / subModMqx: the Listing-3 dataflow built on the
 *    adc/sbb/mulWide policy ops, which MQX implements in one instruction
 *    each. Instantiated with a basic ISA these expand to the Table-1
 *    emulation sequences, which is exactly the PISA comparison.
 *
 * Multiplication (schoolbook Eq. 8 / Karatsuba Eq. 9 + Barrett Eq. 4) is
 * a single template whose carry handling routes through Isa::adc/sbb —
 * so the identical dataflow is measured with AVX-512 emulated carries
 * and with MQX carries, as in the paper's Fig. 6 ablation.
 *
 * Note on Listing 3: the published listing derives the reduce condition
 * as (ehc1 | ehc), which misses the corner a+b >= q with equal high
 * words (eh == mh and el >= ml). The emulated kernels here add the
 * equality term so functional-correctness mode is exact; the deviation
 * is documented in DESIGN.md.
 */
#pragma once

#include "core/config.h"
#include "mod/modulus.h"

namespace mqx {
namespace simd {

/** A vector of double words: hi[i]:lo[i] is lane i's 128-bit residue. */
template <class Isa>
struct DV
{
    typename Isa::V hi;
    typename Isa::V lo;
};

/** A vector of quad words (full products); t0 least significant. */
template <class Isa>
struct QV
{
    typename Isa::V t0;
    typename Isa::V t1;
    typename Isa::V t2;
    typename Isa::V t3;
};

/** Three 52-bit limbs of a 128-bit value: l0 + l1*2^52 + l2*2^104. */
template <class Isa>
struct Limbs52
{
    typename Isa::V l0, l1, l2;
};

/**
 * Five 52-bit limbs of a full product, l[0] + l[1]*2^52 + ..., as
 * carryLimbs52 leaves them: l[0..3] masked to 52 bits, and t[j] holding
 * limb j in bits 12..63 (its column rotated left by 12), where one
 * vpshrdvq joins it to limb j + 1 (windowLimbs52).
 */
template <class Isa>
struct Limbs52x5
{
    typename Isa::V l[5];
    typename Isa::V t[5];
};

/**
 * A shift s = 52*limb + bit at which the IFMA kernels read the window
 * of a five-limb value (the Barrett shifts, the dot fold's split).
 */
template <class Isa>
struct LimbWindow
{
    unsigned limb = 0;       ///< s / 52: the first limb of the window
    typename Isa::V shift{}; ///< s % 52 + 12 per lane: the vpshrdvq count
};

template <class Isa>
inline LimbWindow<Isa>
makeLimbWindow(unsigned s)
{
    return {s / 52, Isa::set1(s % 52 + 12)};
}

/** Limb constants of the IFMA kernels; empty for other ISAs. */
template <class Isa, bool = Isa::kHasIfma>
struct IfmaCtx
{
};

template <class Isa>
struct IfmaCtx<Isa, true>
{
    Limbs52<Isa> nq;               ///< limbs of 2^128 - q (additive -q)
    Limbs52<Isa> mu;               ///< limbs of the Barrett mu
    typename Isa::V m12, m24, m52; ///< low-bit masks
    typename Isa::V zero;          ///< the madd52 chains' start value
    LimbWindow<Isa> s1, s2;        ///< the Barrett shifts b - 1, b + 1
};

/** Per-call broadcast constants derived from the modulus. */
template <class Isa>
struct ModCtx
{
    typename Isa::V qh, ql;   ///< modulus high/low words
    typename Isa::V q2h, q2l; ///< 2q high/low words (lazy-reduction bound)
    typename Isa::V muh, mul; ///< Barrett mu high/low words
    typename Isa::V one;      ///< broadcast 1
    typename Isa::V smax;     ///< 2^63 - 1: the headroom sign test
    typename Isa::M z;        ///< initial carry mask (opaque under PISA)
    unsigned s1 = 0;          ///< Barrett shift b - 1
    unsigned s2 = 0;          ///< Barrett shift b + 1
    IfmaCtx<Isa> ifma;        ///< hoisted q limbs (IFMA ISAs only)
};

/** Broadcast the 52-bit limbs of (hi, lo), split on the scalar side. */
template <class Isa>
inline Limbs52<Isa>
broadcastLimbs52(uint64_t hi, uint64_t lo)
{
    constexpr uint64_t kM52 = (uint64_t{1} << 52) - 1;
    return {Isa::set1(lo & kM52), Isa::set1(((lo >> 52) | (hi << 12)) & kM52),
            Isa::set1(hi >> 40)};
}

/**
 * In-register limb split of a DV: one funnel shift for the middle limb
 * and one byte shuffle (40 = 5 bytes) for the top one, so only one op
 * takes the shift port. Limbs 0 and 1 keep junk above bit 51: vpmadd52
 * reads only the low 52 bits of each source.
 */
template <class Isa>
MQX_FORCE_INLINE Limbs52<Isa>
toLimbs52(const DV<Isa>& x)
{
    return {x.lo, Isa::template shrd<52>(x.lo, x.hi),
            Isa::template srliBytes<5>(x.hi)};
}

/**
 * r0 + r1*2^52 + r2*2^104 mod 2^128 as a DV, from three column sums
 * (each < 2^64). Rotating a column left by 12 puts its carry (bits
 * 52..63) in bits 0..11, to be masked off and added to the next
 * column, and its limb in bits 12..63, where one vpshrdq joins it to
 * the next column: one shift-port op per carry and one per join.
 */
template <class Isa>
MQX_FORCE_INLINE DV<Isa>
joinColumns52(const IfmaCtx<Isa>& k, typename Isa::V r0, typename Isa::V r1,
              typename Isa::V r2)
{
    const auto t0 = Isa::template rotli<12>(r0);
    r1 = Isa::add(r1, Isa::and_(t0, k.m12));
    const auto t1 = Isa::template rotli<12>(r1);
    r2 = Isa::add(r2, Isa::and_(t1, k.m12));
    return {Isa::template shrd<24>(t1, r2), Isa::template shrd<12>(t0, r1)};
}

/** Build the broadcast context from a prepared modulus. */
template <class Isa>
inline ModCtx<Isa>
makeModCtx(const Modulus& m)
{
    ModCtx<Isa> ctx;
    if constexpr (Isa::kHasIfma) {
        const U128 nq = U128::fromParts(0, 0) - m.value();
        ctx.ifma.nq = broadcastLimbs52<Isa>(nq.hi, nq.lo);
        ctx.ifma.mu = broadcastLimbs52<Isa>(m.mu().hi, m.mu().lo);
        ctx.ifma.m12 = Isa::set1((uint64_t{1} << 12) - 1);
        ctx.ifma.m24 = Isa::set1((uint64_t{1} << 24) - 1);
        ctx.ifma.m52 = Isa::set1((uint64_t{1} << 52) - 1);
        ctx.ifma.zero = Isa::set1(0);
        ctx.ifma.s1 = makeLimbWindow<Isa>(static_cast<unsigned>(m.bits() - 1));
        ctx.ifma.s2 = makeLimbWindow<Isa>(static_cast<unsigned>(m.bits() + 1));
    }
    ctx.qh = Isa::set1(m.value().hi);
    ctx.ql = Isa::set1(m.value().lo);
    // 2q fits a double word: bits(q) <= 2w - 4.
    const mod::DW<uint64_t> q2 = mod::shl1Dw(mod::toDw(m.value()));
    ctx.q2h = Isa::set1(q2.hi);
    ctx.q2l = Isa::set1(q2.lo);
    ctx.muh = Isa::set1(m.mu().hi);
    ctx.mul = Isa::set1(m.mu().lo);
    ctx.one = Isa::set1(1);
    ctx.smax = Isa::set1(~uint64_t{0} >> 1);
    ctx.z = Isa::initialCarryMask();
    ctx.s1 = static_cast<unsigned>(m.bits() - 1);
    ctx.s2 = static_cast<unsigned>(m.bits() + 1);
    return ctx;
}

/** Load a DV from split arrays at offset @p j. */
template <class Isa>
MQX_FORCE_INLINE DV<Isa>
loadDv(const uint64_t* hi, const uint64_t* lo, size_t j)
{
    return DV<Isa>{Isa::loadu(hi + j), Isa::loadu(lo + j)};
}

/** Store a DV to split arrays at offset @p j. */
template <class Isa>
MQX_FORCE_INLINE void
storeDv(uint64_t* hi, uint64_t* lo, size_t j, const DV<Isa>& v)
{
    Isa::storeu(hi + j, v.hi);
    Isa::storeu(lo + j, v.lo);
}

// ---------------------------------------------------------------------
// Basic (Listing 2) add/sub
// ---------------------------------------------------------------------

/** Double-word modular addition, Listing-2 dataflow. */
template <class Isa>
inline DV<Isa>
addModBasic(const ModCtx<Isa>& ctx, const DV<Isa>& a, const DV<Isa>& b)
{
    using M = typename Isa::M;
    auto t30 = Isa::add(a.lo, b.lo);
    M q1 = Isa::cmpLtU(t30, a.lo);
    M q2 = Isa::cmpLtU(t30, b.lo);
    M c1 = Isa::maskOr(q1, q2);
    auto t28 = Isa::add(a.hi, b.hi);
    auto t29 = Isa::maskAdd(t28, c1, t28, ctx.one);
    M q3 = Isa::cmpLtU(t29, a.hi);
    M q4 = Isa::cmpLtU(t29, b.hi);
    M c2 = Isa::maskOr(q3, q4);
    M a31 = Isa::cmpLtU(ctx.qh, t29);
    M a35 = Isa::cmpEqU(ctx.qh, t29);
    M a38 = Isa::cmpLeU(ctx.ql, t30);
    M a34 = Isa::maskAnd(a35, a38);
    M i27 = Isa::maskOr(a31, a34);
    M i28 = Isa::maskOr(c2, i27);
    auto d1 = Isa::sub(t30, ctx.ql);
    M b1 = Isa::maskNot(a38);
    auto d2 = Isa::sub(t29, ctx.qh);
    auto d3 = Isa::maskSub(d2, b1, d2, ctx.one);
    DV<Isa> c;
    c.hi = Isa::blend(i28, t29, d3);
    c.lo = Isa::blend(i28, t30, d1);
    return c;
}

/** Double-word modular subtraction (Eq. 3 + Eq. 7), compare/select form. */
template <class Isa>
inline DV<Isa>
subModBasic(const ModCtx<Isa>& ctx, const DV<Isa>& a, const DV<Isa>& b)
{
    using M = typename Isa::M;
    M blo = Isa::cmpLtU(a.lo, b.lo);
    auto d_lo = Isa::sub(a.lo, b.lo);
    auto d_hi0 = Isa::sub(a.hi, b.hi);
    auto d_hi = Isa::maskSub(d_hi0, blo, d_hi0, ctx.one);
    M lt_hi = Isa::cmpLtU(a.hi, b.hi);
    M eq_hi = Isa::cmpEqU(a.hi, b.hi);
    M lt = Isa::maskOr(lt_hi, Isa::maskAnd(eq_hi, blo)); // a < b
    auto e_lo = Isa::add(d_lo, ctx.ql);
    M carry = Isa::cmpLtU(e_lo, d_lo);
    auto e_hi0 = Isa::add(d_hi, ctx.qh);
    auto e_hi = Isa::maskAdd(e_hi0, carry, e_hi0, ctx.one);
    DV<Isa> c;
    c.lo = Isa::blend(lt, d_lo, e_lo);
    c.hi = Isa::blend(lt, d_hi, e_hi);
    return c;
}

// ---------------------------------------------------------------------
// MQX-shape (Listing 3) add/sub
// ---------------------------------------------------------------------

/** Double-word modular addition, Listing-3 dataflow over adc/sbb. */
template <class Isa>
inline DV<Isa>
addModMqx(const ModCtx<Isa>& ctx, const DV<Isa>& a, const DV<Isa>& b)
{
    using M = typename Isa::M;
    M elc, ehc;
    auto el = Isa::adc(a.lo, b.lo, ctx.z, elc);
    auto eh = Isa::adc(a.hi, b.hi, elc, ehc);
    M ehc1 = Isa::cmpLtU(ctx.qh, eh);
    // Equality corner the published listing omits: a+b >= q also when
    // the high words tie and the low word reaches ml.
    M eqh = Isa::cmpEqU(ctx.qh, eh);
    M gel = Isa::cmpLeU(ctx.ql, el);
    M ctrl = Isa::maskOr(Isa::maskOr(ehc1, ehc), Isa::maskAnd(eqh, gel));
    if constexpr (Isa::kHasPredicated) {
        // +P variant: predicated subtract-with-borrow removes the blends.
        M clc = Isa::cmpLtU(el, ctx.ql);
        DV<Isa> c;
        c.lo = Isa::pSbb(el, ctx.ql, ctx.z, ctrl);
        c.hi = Isa::pSbb(eh, ctx.qh, clc, ctrl);
        return c;
    } else {
        M clc, dummy;
        auto c1 = Isa::sbb(el, ctx.ql, ctx.z, clc);
        DV<Isa> c;
        c.lo = Isa::blend(ctrl, el, c1);
        auto c2 = Isa::sbb(eh, ctx.qh, clc, dummy);
        c.hi = Isa::blend(ctrl, eh, c2);
        return c;
    }
}

/** Double-word modular subtraction over sbb/adc. */
template <class Isa>
inline DV<Isa>
subModMqx(const ModCtx<Isa>& ctx, const DV<Isa>& a, const DV<Isa>& b)
{
    using M = typename Isa::M;
    M blo, bo;
    auto dl = Isa::sbb(a.lo, b.lo, ctx.z, blo);
    auto dh = Isa::sbb(a.hi, b.hi, blo, bo); // bo <=> a < b
    if constexpr (Isa::kHasPredicated) {
        M c;
        DV<Isa> r;
        r.lo = Isa::pAdc(dl, ctx.ql, ctx.z, bo);
        c = Isa::cmpLtU(r.lo, dl); // carry created only in predicated lanes
        c = Isa::maskAnd(c, bo);
        r.hi = Isa::pAdc(dh, ctx.qh, c, bo);
        return r;
    } else {
        M c, dummy;
        auto el = Isa::adc(dl, ctx.ql, ctx.z, c);
        auto eh = Isa::adc(dh, ctx.qh, c, dummy);
        DV<Isa> r;
        r.lo = Isa::blend(bo, dl, el);
        r.hi = Isa::blend(bo, dh, eh);
        return r;
    }
}

// ---------------------------------------------------------------------
// Multiplication: full product + Barrett reduction
// ---------------------------------------------------------------------

/** Schoolbook full product (Eq. 8): four mulWide + carry chains. */
template <class Isa>
MQX_FORCE_INLINE QV<Isa>
mulFullSchoolV(const ModCtx<Isa>& ctx, const DV<Isa>& a, const DV<Isa>& b)
{
    using M = typename Isa::M;
    typename Isa::V p00h, p00l, p01h, p01l, p10h, p10l, p11h, p11l;
    Isa::mulWide(a.lo, b.lo, p00h, p00l);
    Isa::mulWide(a.lo, b.hi, p01h, p01l);
    Isa::mulWide(a.hi, b.lo, p10h, p10l);
    Isa::mulWide(a.hi, b.hi, p11h, p11l);

    QV<Isa> r;
    r.t0 = p00l;
    M c, c2;
    r.t1 = Isa::adc(p00h, p01l, ctx.z, c);
    r.t2 = Isa::adc(p01h, p11l, c, c2);
    r.t3 = Isa::maskAdd(p11h, c2, p11h, ctx.one);
    r.t1 = Isa::adc(r.t1, p10l, ctx.z, c);
    r.t2 = Isa::adc(r.t2, p10h, c, c2);
    r.t3 = Isa::maskAdd(r.t3, c2, r.t3, ctx.one);
    return r;
}

/** Karatsuba full product (Eq. 9): three mulWide + fixups. */
template <class Isa>
MQX_FORCE_INLINE QV<Isa>
mulFullKaratsubaV(const ModCtx<Isa>& ctx, const DV<Isa>& a, const DV<Isa>& b)
{
    using M = typename Isa::M;
    typename Isa::V llh, lll, hhh, hhl;
    Isa::mulWide(a.lo, b.lo, llh, lll);
    Isa::mulWide(a.hi, b.hi, hhh, hhl);

    M ca, cb;
    auto sa = Isa::adc(a.hi, a.lo, ctx.z, ca);
    auto sb = Isa::adc(b.hi, b.lo, ctx.z, cb);

    typename Isa::V mh, ml;
    Isa::mulWide(sa, sb, mh, ml);
    // mid (3 words m0:m1:m2) = sa*sb + ca*sb*2^w + cb*sa*2^w + ca*cb*2^2w
    auto m0 = ml;
    auto m1 = mh;
    auto m2 = Isa::maskAdd(Isa::set1(0), Isa::maskAnd(ca, cb), Isa::set1(0),
                           ctx.one);
    auto m1a = Isa::maskAdd(m1, ca, m1, sb);
    M ovf = Isa::maskAnd(ca, Isa::cmpLtU(m1a, m1));
    m2 = Isa::maskAdd(m2, ovf, m2, ctx.one);
    auto m1b = Isa::maskAdd(m1a, cb, m1a, sa);
    ovf = Isa::maskAnd(cb, Isa::cmpLtU(m1b, m1a));
    m2 = Isa::maskAdd(m2, ovf, m2, ctx.one);
    m1 = m1b;

    // mid -= a0b0; mid -= a1b1 (borrow-chained).
    M br;
    m0 = Isa::sbb(m0, lll, ctx.z, br);
    m1 = Isa::sbb(m1, llh, br, br);
    m2 = Isa::maskSub(m2, br, m2, ctx.one);
    m0 = Isa::sbb(m0, hhl, ctx.z, br);
    m1 = Isa::sbb(m1, hhh, br, br);
    m2 = Isa::maskSub(m2, br, m2, ctx.one);

    // r = hh*2^2w + mid*2^w + ll.
    QV<Isa> r;
    M c, c2;
    r.t0 = lll;
    r.t1 = Isa::adc(llh, m0, ctx.z, c);
    r.t2 = Isa::adc(hhl, m1, c, c2);
    r.t3 = Isa::adc(hhh, m2, c2, c);
    return r;
}

/**
 * Funnel shift: extract the double word (x >> s) from a quad word.
 * s is uniform across lanes and in [1, 127]; the caller guarantees the
 * true result fits in two words. srlCount/sllCount treat counts >= 64
 * as zero, which makes the s == 64 boundary fall out naturally.
 */
template <class Isa>
inline DV<Isa>
shrQwV(const QV<Isa>& x, unsigned s)
{
    DV<Isa> r;
    if (s >= 64) {
        unsigned t = s - 64;
        r.lo = Isa::or_(Isa::srlCount(x.t1, t), Isa::sllCount(x.t2, 64 - t));
        r.hi = Isa::or_(Isa::srlCount(x.t2, t), Isa::sllCount(x.t3, 64 - t));
    } else {
        r.lo = Isa::or_(Isa::srlCount(x.t0, s), Isa::sllCount(x.t1, 64 - s));
        r.hi = Isa::or_(Isa::srlCount(x.t1, s), Isa::sllCount(x.t2, 64 - s));
    }
    return r;
}

/** Low double word of the product a*b (3 mullo + 1 mulWide-high). */
template <class Isa>
MQX_FORCE_INLINE DV<Isa>
mulLowDwV(const DV<Isa>& a, const DV<Isa>& b)
{
    typename Isa::V ph, pl;
    Isa::mulWide(a.lo, b.lo, ph, pl);
    DV<Isa> r;
    r.lo = pl;
    r.hi = Isa::add(ph, Isa::add(Isa::mullo(a.lo, b.hi),
                                 Isa::mullo(a.hi, b.lo)));
    return r;
}

/** Lane mask of (a >= b) over double words. */
template <class Isa>
MQX_FORCE_INLINE typename Isa::M
cmpGeDwV(const DV<Isa>& a, const DV<Isa>& b)
{
    using M = typename Isa::M;
    M gt = Isa::cmpGtU(a.hi, b.hi);
    M eq = Isa::cmpEqU(a.hi, b.hi);
    M ge_lo = Isa::cmpLeU(b.lo, a.lo);
    return Isa::maskOr(gt, Isa::maskAnd(eq, ge_lo));
}

/**
 * The two Barrett correction rounds: c >= q ? c - q : c, twice, with
 * the exact double-word compare (any c < 2^128).
 */
template <class Isa>
inline DV<Isa>
barrettCorrectV(const ModCtx<Isa>& ctx, DV<Isa> c)
{
    using M = typename Isa::M;
    const DV<Isa> q{ctx.qh, ctx.ql};
    for (int round = 0; round < 2; ++round) {
        M ge = cmpGeDwV<Isa>(c, q);
        M blo = Isa::cmpLtU(c.lo, ctx.ql);
        auto d_lo = Isa::sub(c.lo, ctx.ql);
        auto d_hi = Isa::sub(c.hi, ctx.qh);
        d_hi = Isa::maskSub(d_hi, blo, d_hi, ctx.one);
        c.lo = Isa::blend(ge, c.lo, d_lo);
        c.hi = Isa::blend(ge, c.hi, d_hi);
    }
    return c;
}

/**
 * Barrett reduction of a full product to [0, q) (Eq. 4, HAC-14.42
 * estimate, at most two correction subtractions).
 */
template <class Isa>
inline DV<Isa>
barrettReduceV(const ModCtx<Isa>& ctx, const QV<Isa>& x)
{
    using M = typename Isa::M;
    // Quotient estimate e = ((x >> (b-1)) * mu) >> (b+1).
    DV<Isa> x1 = shrQwV<Isa>(x, ctx.s1);
    DV<Isa> mu{ctx.muh, ctx.mul};
    QV<Isa> p = mulFullSchoolV<Isa>(ctx, x1, mu);
    DV<Isa> e = shrQwV<Isa>(p, ctx.s2);
    // c = (x - e*q) mod 2^128; true value < 3q so low words are exact.
    DV<Isa> q{ctx.qh, ctx.ql};
    DV<Isa> eq = mulLowDwV<Isa>(e, q);
    M br;
    DV<Isa> c;
    c.lo = Isa::sbb(x.t0, eq.lo, ctx.z, br);
    c.hi = Isa::sbb(x.t1, eq.hi, br, br);
    return barrettCorrectV<Isa>(ctx, c);
}

// ---------------------------------------------------------------------
// Shoup multiplication and lazy-reduction helpers
// ---------------------------------------------------------------------

/*
 * The lazy helpers come in two forms, picked per ISA by the kCarry
 * template argument (default: Isa::kCarryChain).
 *
 *  - Carry chain: adc/sbb pairs. MQX executes each in one instruction,
 *    and the PISA, Table-6 and Fig.-6 counts assume this form, so MQX
 *    ISAs keep it; PortableIsa keeps it too, because its adc/sbb are
 *    one scalar add-with-carry per lane.
 *  - Headroom: AVX2 and AVX-512 emulate adc/sbb in six instructions,
 *    so the carry is rebuilt once from a low-word compare, and the
 *    lazy canonicalization reads the sign bit of a plain difference.
 *    That is exact because every operand stays below 2^127: q < 2^124
 *    (Barrett::make) and lazy values are below 4q.
 *
 * Both forms give the same words; tests/test_shoup.cc checks them at
 * the carry/borrow edges on every non-MQX ISA compiled in.
 */

/** Plain wrap-around double-word add (no modular reduction). */
template <class Isa, bool kCarry = Isa::kCarryChain>
MQX_FORCE_INLINE DV<Isa>
addDwV(const ModCtx<Isa>& ctx, const DV<Isa>& a, const DV<Isa>& b)
{
    using M = typename Isa::M;
    DV<Isa> r;
    if constexpr (kCarry) {
        M c;
        r.lo = Isa::adc(a.lo, b.lo, ctx.z, c);
        r.hi = Isa::adc(a.hi, b.hi, c, c);
    } else {
        r.lo = Isa::add(a.lo, b.lo);
        M c = Isa::cmpLtU(r.lo, a.lo);
        r.hi = Isa::add(a.hi, b.hi);
        r.hi = Isa::maskAdd(r.hi, c, r.hi, ctx.one);
    }
    return r;
}

/** Plain wrap-around double-word subtract (no modular correction). */
template <class Isa, bool kCarry = Isa::kCarryChain>
MQX_FORCE_INLINE DV<Isa>
subDwV(const ModCtx<Isa>& ctx, const DV<Isa>& a, const DV<Isa>& b)
{
    using M = typename Isa::M;
    DV<Isa> r;
    if constexpr (kCarry) {
        M br;
        r.lo = Isa::sbb(a.lo, b.lo, ctx.z, br);
        r.hi = Isa::sbb(a.hi, b.hi, br, br);
    } else {
        M br = Isa::cmpLtU(a.lo, b.lo);
        r.lo = Isa::sub(a.lo, b.lo);
        r.hi = Isa::sub(a.hi, b.hi);
        r.hi = Isa::maskSub(r.hi, br, r.hi, ctx.one);
    }
    return r;
}

/**
 * Per-lane x >= b ? x - b : x — the lazy canonicalization step. The
 * headroom form needs x, b < 2^127: then x < b exactly when the sign
 * bit of x - b is set.
 */
template <class Isa, bool kCarry = Isa::kCarryChain>
MQX_FORCE_INLINE DV<Isa>
condSubDwV(const ModCtx<Isa>& ctx, const DV<Isa>& x, typename Isa::V bh,
           typename Isa::V bl)
{
    using M = typename Isa::M;
    DV<Isa> b{bh, bl};
    DV<Isa> r;
    if constexpr (kCarry) {
        M ge = cmpGeDwV<Isa>(x, b);
        M blo = Isa::cmpLtU(x.lo, bl);
        auto d_lo = Isa::sub(x.lo, bl);
        auto d_hi = Isa::sub(x.hi, bh);
        d_hi = Isa::maskSub(d_hi, blo, d_hi, ctx.one);
        r.lo = Isa::blend(ge, x.lo, d_lo);
        r.hi = Isa::blend(ge, x.hi, d_hi);
    } else {
        DV<Isa> d = subDwV<Isa, false>(ctx, x, b);
        M lt = Isa::cmpGtU(d.hi, ctx.smax);
        r.lo = Isa::blend(lt, d.lo, x.lo);
        r.hi = Isa::blend(lt, d.hi, x.hi);
    }
    return r;
}

/**
 * Shoup multiply on IFMA 52-bit limbs (Avx512IfmaIsa), of a value
 * already split into limbs @p x (toLimbs52; its top limb < 2^24). The
 * value is exactly mulModShoupV's: h = floor(a*wq / 2^128) is taken
 * from the full limb product, then r = a*w + h*(2^128 - q) mod 2^128,
 * which is a*w - h*q with every column sum non-negative. Any a < 2^128,
 * and w, wq < 2^128.
 *
 * Column k of a product collects the limb products of weight 2^(52k):
 * madd52lo adds the low 52 bits of x_i*y_j to column i+j, madd52hi the
 * high 52 bits to column i+j+1. 16 ops give the columns of a*wq that
 * reach bit 128 (column 0 is one low half, < 2^52, so it never
 * carries; hi(x2*b2) is zero because both top limbs are < 2^24), and
 * 18 more give columns 0..2 of a*w + h*(2^128 - q).
 */
template <class Isa>
MQX_FORCE_INLINE DV<Isa>
mulModShoupIfmaV(const ModCtx<Isa>& ctx, const Limbs52<Isa>& x,
                 const Limbs52<Isa>& w, const Limbs52<Isa>& b)
{
    using V = typename Isa::V;
    const auto& k = ctx.ifma;

    V c1 = Isa::madd52hi(k.zero, x.l0, b.l0);
    c1 = Isa::madd52lo(c1, x.l0, b.l1);
    c1 = Isa::madd52lo(c1, x.l1, b.l0);
    V c2 = Isa::madd52hi(k.zero, x.l0, b.l1);
    c2 = Isa::madd52hi(c2, x.l1, b.l0);
    c2 = Isa::madd52lo(c2, x.l0, b.l2);
    c2 = Isa::madd52lo(c2, x.l1, b.l1);
    c2 = Isa::madd52lo(c2, x.l2, b.l0);
    V c3 = Isa::madd52hi(k.zero, x.l0, b.l2);
    c3 = Isa::madd52hi(c3, x.l1, b.l1);
    c3 = Isa::madd52hi(c3, x.l2, b.l0);
    c3 = Isa::madd52lo(c3, x.l1, b.l2);
    c3 = Isa::madd52lo(c3, x.l2, b.l1);
    V c4 = Isa::madd52hi(k.zero, x.l1, b.l2);
    c4 = Isa::madd52hi(c4, x.l2, b.l1);
    c4 = Isa::madd52lo(c4, x.l2, b.l2);
    // The carry pass rotates columns 2 and 3 as joinColumns52 does.
    c2 = Isa::add(c2, Isa::template srli<52>(c1));
    const V t2 = Isa::template rotli<12>(c2);
    c3 = Isa::add(c3, Isa::and_(t2, k.m12));
    const V t3 = Isa::template rotli<12>(c3);
    c4 = Isa::add(c4, Isa::and_(t3, k.m12)); // < 2^48: a*wq < 2^256
    // h = product bits 128.., and 128 = 2*52 + 24: limb j is bits
    // 24..75 of columns 2 + j and 3 + j; the top one is c4 >> 24, three
    // bytes.
    const Limbs52<Isa> h{Isa::template shrd<36>(t2, c3),
                         Isa::template shrd<36>(t3, c4),
                         Isa::template srliBytes<3>(c4)};

    V r0 = Isa::madd52lo(k.zero, x.l0, w.l0);
    r0 = Isa::madd52lo(r0, h.l0, k.nq.l0);
    V r1 = Isa::madd52hi(k.zero, x.l0, w.l0);
    r1 = Isa::madd52lo(r1, x.l0, w.l1);
    r1 = Isa::madd52lo(r1, x.l1, w.l0);
    r1 = Isa::madd52hi(r1, h.l0, k.nq.l0);
    r1 = Isa::madd52lo(r1, h.l0, k.nq.l1);
    r1 = Isa::madd52lo(r1, h.l1, k.nq.l0);
    V r2 = Isa::madd52hi(k.zero, x.l0, w.l1);
    r2 = Isa::madd52hi(r2, x.l1, w.l0);
    r2 = Isa::madd52lo(r2, x.l0, w.l2);
    r2 = Isa::madd52lo(r2, x.l1, w.l1);
    r2 = Isa::madd52lo(r2, x.l2, w.l0);
    r2 = Isa::madd52hi(r2, h.l0, k.nq.l1);
    r2 = Isa::madd52hi(r2, h.l1, k.nq.l0);
    r2 = Isa::madd52lo(r2, h.l0, k.nq.l2);
    r2 = Isa::madd52lo(r2, h.l1, k.nq.l1);
    r2 = Isa::madd52lo(r2, h.l2, k.nq.l0);
    return joinColumns52<Isa>(k, r0, r1, r2);
}

/**
 * The carry pass of five column sums (each < 2^64) of a value below
 * 2^256: limbs as Limbs52x5 describes them, l[4] < 2^48.
 */
template <class Isa>
MQX_FORCE_INLINE Limbs52x5<Isa>
carryLimbs52(const IfmaCtx<Isa>& k, typename Isa::V c0, typename Isa::V c1,
             typename Isa::V c2, typename Isa::V c3, typename Isa::V c4)
{
    Limbs52x5<Isa> r;
    typename Isa::V c[5] = {c0, c1, c2, c3, c4};
    for (int j = 0; j < 4; ++j) {
        r.t[j] = Isa::template rotli<12>(c[j]);
        c[j + 1] = Isa::add(c[j + 1], Isa::and_(r.t[j], k.m12));
        r.l[j] = Isa::and_(c[j], k.m52);
    }
    r.l[4] = c[4];
    r.t[4] = Isa::template rotli<12>(c[4]);
    return r;
}

/**
 * Full product of two limb triples (top limbs < 2^24) as five 52-bit
 * limbs: 17 vpmadd52 column sums, then carryLimbs52 (hi(x2*y2) is
 * zero, so it is skipped).
 */
template <class Isa>
MQX_FORCE_INLINE Limbs52x5<Isa>
mulLimbs52(const IfmaCtx<Isa>& k, const Limbs52<Isa>& x,
           const Limbs52<Isa>& y)
{
    using V = typename Isa::V;
    V c0 = Isa::madd52lo(k.zero, x.l0, y.l0);
    V c1 = Isa::madd52hi(k.zero, x.l0, y.l0);
    c1 = Isa::madd52lo(c1, x.l0, y.l1);
    c1 = Isa::madd52lo(c1, x.l1, y.l0);
    V c2 = Isa::madd52hi(k.zero, x.l0, y.l1);
    c2 = Isa::madd52hi(c2, x.l1, y.l0);
    c2 = Isa::madd52lo(c2, x.l0, y.l2);
    c2 = Isa::madd52lo(c2, x.l1, y.l1);
    c2 = Isa::madd52lo(c2, x.l2, y.l0);
    V c3 = Isa::madd52hi(k.zero, x.l0, y.l2);
    c3 = Isa::madd52hi(c3, x.l1, y.l1);
    c3 = Isa::madd52hi(c3, x.l2, y.l0);
    c3 = Isa::madd52lo(c3, x.l1, y.l2);
    c3 = Isa::madd52lo(c3, x.l2, y.l1);
    V c4 = Isa::madd52hi(k.zero, x.l1, y.l2);
    c4 = Isa::madd52hi(c4, x.l2, y.l1);
    c4 = Isa::madd52lo(c4, x.l2, y.l2);
    return carryLimbs52<Isa>(k, c0, c1, c2, c3, c4);
}

/**
 * Bits [s, s + 128) of a five-limb value, as limbs: limb j is
 * (l[i] >> bit) | (l[i + 1] << (52 - bit)) for i = s.limb + j, one
 * vpshrdvq of t[i] (limb i in bits 12..63) by bit + 12. The limb index
 * is uniform, so the window start is a predictable branch. Limbs 0 and
 * 1 keep junk above bit 51 (vpmadd52 ignores it); limb 2 keeps bits
 * 104..155 of the window, so callers mask it when they need the window
 * mod 2^128.
 */
template <class Isa>
MQX_FORCE_INLINE Limbs52<Isa>
windowLimbs52(const IfmaCtx<Isa>& k, const Limbs52x5<Isa>& x,
              const LimbWindow<Isa>& s)
{
    using V = typename Isa::V;
    // Branches, not x.l[s.limb + j]: a runtime index would spill the
    // limbs to memory.
    V t0 = x.t[2], t1 = x.t[3], t2 = x.t[4];
    V w1 = x.l[3], w2 = x.l[4], w3 = k.zero;
    if (s.limb == 0) {
        t0 = x.t[0];
        t1 = x.t[1];
        t2 = x.t[2];
        w1 = x.l[1];
        w2 = x.l[2];
        w3 = x.l[3];
    } else if (s.limb == 1) {
        t0 = x.t[1];
        t1 = x.t[2];
        t2 = x.t[3];
        w1 = x.l[2];
        w2 = x.l[3];
        w3 = x.l[4];
    }
    return {Isa::shrdv(t0, w1, s.shift), Isa::shrdv(t1, w2, s.shift),
            Isa::shrdv(t2, w3, s.shift)};
}

/**
 * Barrett multiply on IFMA 52-bit limbs (Avx512IfmaIsa): the same
 * words as mulModV's emulated path for every a, b < 2^128, step for
 * step. x = a*b and p = x1*mu are exact limb products; x1 and e are
 * the 128-bit windows at the runtime shifts b - 1 and b + 1 (x1 mod
 * 2^128 like shrQwV); c = x + e*(2^128 - q) mod 2^128 is x - e*q; then
 * the same two exact corrections.
 */
template <class Isa>
MQX_FORCE_INLINE DV<Isa>
mulModBarrettIfmaV(const ModCtx<Isa>& ctx, const DV<Isa>& a, const DV<Isa>& b)
{
    using V = typename Isa::V;
    const auto& k = ctx.ifma;
    const Limbs52x5<Isa> x =
        mulLimbs52<Isa>(k, toLimbs52<Isa>(a), toLimbs52<Isa>(b));
    Limbs52<Isa> x1 = windowLimbs52<Isa>(k, x, k.s1);
    x1.l2 = Isa::and_(x1.l2, k.m24);
    const Limbs52x5<Isa> p = mulLimbs52<Isa>(k, x1, k.mu);
    // e's limb 2 may keep bits past 128: they only reach result bits
    // >= 128, which the reassembly drops.
    const Limbs52<Isa> e = windowLimbs52<Isa>(k, p, k.s2);

    V r0 = Isa::madd52lo(x.l[0], e.l0, k.nq.l0);
    V r1 = Isa::madd52hi(x.l[1], e.l0, k.nq.l0);
    r1 = Isa::madd52lo(r1, e.l0, k.nq.l1);
    r1 = Isa::madd52lo(r1, e.l1, k.nq.l0);
    V r2 = Isa::madd52hi(x.l[2], e.l0, k.nq.l1);
    r2 = Isa::madd52hi(r2, e.l1, k.nq.l0);
    r2 = Isa::madd52lo(r2, e.l0, k.nq.l2);
    r2 = Isa::madd52lo(r2, e.l1, k.nq.l1);
    r2 = Isa::madd52lo(r2, e.l2, k.nq.l0);
    return barrettCorrectV<Isa>(ctx, joinColumns52<Isa>(k, r0, r1, r2));
}

/**
 * A fixed Shoup multiplicand (w, wq) in the form the ISA's multiply
 * consumes: split hi/lo words, or 52-bit limbs on IFMA ISAs. Kernels
 * that reuse one multiplicand (a broadcast twiddle run, n^-1, a batch
 * row) build it once, so the IFMA limb split is paid once too.
 */
template <class Isa, bool = Isa::kHasIfma>
struct ShoupW
{
    DV<Isa> w, wq;
};

template <class Isa>
struct ShoupW<Isa, true>
{
    Limbs52<Isa> w, wq;
};

/** ShoupW from vectors of w and wq. */
template <class Isa>
inline ShoupW<Isa>
makeShoupW(const DV<Isa>& w, const DV<Isa>& wq)
{
    if constexpr (Isa::kHasIfma)
        return {toLimbs52<Isa>(w), toLimbs52<Isa>(wq)};
    else
        return {w, wq};
}

/** ShoupW broadcast from one scalar (w, wq) pair. */
template <class Isa>
inline ShoupW<Isa>
broadcastShoupW(uint64_t w_hi, uint64_t w_lo, uint64_t wq_hi, uint64_t wq_lo)
{
    if constexpr (Isa::kHasIfma)
        return {broadcastLimbs52<Isa>(w_hi, w_lo),
                broadcastLimbs52<Isa>(wq_hi, wq_lo)};
    else
        return {DV<Isa>{Isa::set1(w_hi), Isa::set1(w_lo)},
                DV<Isa>{Isa::set1(wq_hi), Isa::set1(wq_lo)}};
}

/**
 * Shoup/Harvey multiply by a fixed w with precomputed quotient wq
 * (see mod::mulModShoup): h = floor(a*wq / 2^128), r = a*w - h*q mod
 * 2^128, with r in [0, 2q) for ANY a. One full product plus two low
 * products — no Barrett shifts, no correction rounds. IFMA ISAs run
 * mulModShoupIfmaV instead (same value). kCarry picks the form of the
 * final subtract, as for subDwV.
 */
template <class Isa, bool kCarry = Isa::kCarryChain>
inline DV<Isa>
mulModShoupV(const ModCtx<Isa>& ctx, const DV<Isa>& a, const DV<Isa>& w,
             const DV<Isa>& wq)
{
    if constexpr (Isa::kHasIfma) {
        return mulModShoupIfmaV<Isa>(ctx, toLimbs52<Isa>(a),
                                     toLimbs52<Isa>(w), toLimbs52<Isa>(wq));
    }
    QV<Isa> p = mulFullSchoolV<Isa>(ctx, a, wq);
    DV<Isa> h{p.t3, p.t2};
    DV<Isa> aw = mulLowDwV<Isa>(a, w);
    DV<Isa> hq = mulLowDwV<Isa>(h, DV<Isa>{ctx.qh, ctx.ql});
    return subDwV<Isa, kCarry>(ctx, aw, hq);
}

/** mulModShoupV with a prepared multiplicand. */
template <class Isa, bool kCarry = Isa::kCarryChain>
inline DV<Isa>
mulModShoupV(const ModCtx<Isa>& ctx, const DV<Isa>& a, const ShoupW<Isa>& w)
{
    if constexpr (Isa::kHasIfma)
        return mulModShoupIfmaV<Isa>(ctx, toLimbs52<Isa>(a), w.w, w.wq);
    else
        return mulModShoupV<Isa, kCarry>(ctx, a, w.w, w.wq);
}

/**
 * Lazy modular add: inputs in [0, 2q), output in [0, 2q). The transient
 * sum reaches 4q — fine, q has >= 4 bits of double-word headroom — and
 * the only correction is one conditional subtract of 2q.
 */
template <class Isa, bool kCarry = Isa::kCarryChain>
MQX_FORCE_INLINE DV<Isa>
addModLazyV(const ModCtx<Isa>& ctx, const DV<Isa>& a, const DV<Isa>& b)
{
    return condSubDwV<Isa, kCarry>(ctx, addDwV<Isa, kCarry>(ctx, a, b),
                                   ctx.q2h, ctx.q2l);
}

/**
 * Lazy difference a - b + 2q for inputs in [0, 2q): the raw value in
 * (0, 4q) with NO reduction — exactly the operand shape mulModShoupV
 * accepts, so the forward butterfly feeds it straight into the twiddle
 * multiply.
 */
template <class Isa, bool kCarry = Isa::kCarryChain>
MQX_FORCE_INLINE DV<Isa>
subModLazyRawV(const ModCtx<Isa>& ctx, const DV<Isa>& a, const DV<Isa>& b)
{
    DV<Isa> q2{ctx.q2h, ctx.q2l};
    return subDwV<Isa, kCarry>(ctx, addDwV<Isa, kCarry>(ctx, a, q2), b);
}

/** Lazy modular subtract: inputs in [0, 2q), output in [0, 2q). */
template <class Isa, bool kCarry = Isa::kCarryChain>
MQX_FORCE_INLINE DV<Isa>
subModLazyV(const ModCtx<Isa>& ctx, const DV<Isa>& a, const DV<Isa>& b)
{
    return condSubDwV<Isa, kCarry>(
        ctx, subModLazyRawV<Isa, kCarry>(ctx, a, b), ctx.q2h, ctx.q2l);
}

/**
 * Modular multiplication: full product + Barrett reduction. The product
 * is schoolbook (Eq. 8), or Karatsuba (Eq. 9) when @p kKaratsuba — the
 * Section 5.5 ablation of Reduction::BarrettKaratsuba. IFMA ISAs run
 * mulModBarrettIfmaV instead (same words; one limb product, so
 * kKaratsuba has no effect there).
 */
template <class Isa, bool kKaratsuba = false>
inline DV<Isa>
mulModV(const ModCtx<Isa>& ctx, const DV<Isa>& a, const DV<Isa>& b)
{
    if constexpr (Isa::kHasIfma)
        return mulModBarrettIfmaV<Isa>(ctx, a, b);
    else if constexpr (kKaratsuba)
        return barrettReduceV<Isa>(ctx, mulFullKaratsubaV<Isa>(ctx, a, b));
    else
        return barrettReduceV<Isa>(ctx, mulFullSchoolV<Isa>(ctx, a, b));
}

// ---------------------------------------------------------------------
// Lazily reduced dot product on IFMA limbs
// ---------------------------------------------------------------------

/**
 * Pairs one dot-product column sum takes before it is folded. With
 * b = bits(q) <= 124, a sum x = s + sum of K products (s < q, operands
 * < q) stays below K*q^2 + q < 2^(b+128) for K <= 15, so its high part
 * x >> b is a 128-bit Shoup operand; each column then holds at most
 * 5K + 1 terms below 2^52, far from 2^64.
 */
inline constexpr size_t kDotFoldPairs = 15;

/**
 * The fold constants of dotFoldIfmaV for one modulus: x = xh*2^b + xl
 * is congruent to xh*(2^b - q) + xl, so the fold is one Shoup multiply
 * by c = 2^b - q (c < q, because q >= 2^(b-1)) plus the low b bits.
 */
template <class Isa>
struct DotFold
{
    ShoupW<Isa> c;                ///< 2^b - q and its Shoup companion
    LimbWindow<Isa> b;            ///< the split point, bits(q)
    typename Isa::V lo_mask, hi_mask; ///< xl = x mod 2^b, per word
};

/** DotFold for @p m, whose value must be odd (Shoup companion). */
template <class Isa>
inline DotFold<Isa>
makeDotFold(const Modulus& m)
{
    const U128 c = (U128{1} << m.bits()) - m.value();
    const auto b = static_cast<unsigned>(m.bits());
    const U128 cq = m.shoupCompanion(c);
    const uint64_t all = ~uint64_t{0};
    DotFold<Isa> f;
    f.c = broadcastShoupW<Isa>(c.hi, c.lo, cq.hi, cq.lo);
    f.b = makeLimbWindow<Isa>(b);
    f.lo_mask = Isa::set1(b >= 64 ? all : (uint64_t{1} << b) - 1);
    f.hi_mask = Isa::set1(b > 64 ? (uint64_t{1} << (b - 64)) - 1 : 0);
    return f;
}

/**
 * Column sums of a dot product in progress: lo[j] + hi[j] collects
 * terms of weight 2^(52j), each below 2^52, with no carries between
 * columns. The madd52lo and madd52hi terms go to separate registers,
 * which halves the longest dependent vpmadd52 chain per pair.
 */
template <class Isa>
struct DotColumns
{
    typename Isa::V lo[5], hi[5];
};

/** Columns holding the canonical value @p s (the running sum). */
template <class Isa>
MQX_FORCE_INLINE DotColumns<Isa>
dotColumnsFrom(const IfmaCtx<Isa>& k, const DV<Isa>& s)
{
    const Limbs52<Isa> x = toLimbs52<Isa>(s);
    return {{Isa::and_(x.l0, k.m52), Isa::and_(x.l1, k.m52), x.l2, k.zero,
             k.zero},
            {k.zero, k.zero, k.zero, k.zero, k.zero}};
}

/**
 * Add the full product of @p x and @p y (top limbs < 2^24) into the
 * columns: the 17 vpmadd52 column products of mulLimbs52, no carry
 * pass.
 */
template <class Isa>
MQX_FORCE_INLINE void
dotAddProductIfma(DotColumns<Isa>& d, const Limbs52<Isa>& x,
                  const Limbs52<Isa>& y)
{
    auto& lo = d.lo;
    auto& hi = d.hi;
    lo[0] = Isa::madd52lo(lo[0], x.l0, y.l0);
    hi[1] = Isa::madd52hi(hi[1], x.l0, y.l0);
    lo[1] = Isa::madd52lo(lo[1], x.l0, y.l1);
    lo[1] = Isa::madd52lo(lo[1], x.l1, y.l0);
    hi[2] = Isa::madd52hi(hi[2], x.l0, y.l1);
    hi[2] = Isa::madd52hi(hi[2], x.l1, y.l0);
    lo[2] = Isa::madd52lo(lo[2], x.l0, y.l2);
    lo[2] = Isa::madd52lo(lo[2], x.l1, y.l1);
    lo[2] = Isa::madd52lo(lo[2], x.l2, y.l0);
    hi[3] = Isa::madd52hi(hi[3], x.l0, y.l2);
    hi[3] = Isa::madd52hi(hi[3], x.l1, y.l1);
    hi[3] = Isa::madd52hi(hi[3], x.l2, y.l0);
    lo[3] = Isa::madd52lo(lo[3], x.l1, y.l2);
    lo[3] = Isa::madd52lo(lo[3], x.l2, y.l1);
    hi[4] = Isa::madd52hi(hi[4], x.l1, y.l2);
    hi[4] = Isa::madd52hi(hi[4], x.l2, y.l1);
    lo[4] = Isa::madd52lo(lo[4], x.l2, y.l2);
}

/**
 * Reduce the columns of at most kDotFoldPairs products plus a canonical
 * running sum to [0, q): one carry pass normalises them into five
 * limbs of x; then xh = x >> b (< 2^128) times 2^b - q by Shoup lands
 * in [0, 2q), xl = x mod 2^b < 2q, and their sum below 4q takes two
 * conditional subtractions (of 2q, then q).
 */
template <class Isa>
inline DV<Isa>
dotFoldIfmaV(const ModCtx<Isa>& ctx, const DotFold<Isa>& f,
             const DotColumns<Isa>& d)
{
    const auto& k = ctx.ifma;
    const Limbs52x5<Isa> x = carryLimbs52<Isa>(
        k, d.lo[0], Isa::add(d.lo[1], d.hi[1]), Isa::add(d.lo[2], d.hi[2]),
        Isa::add(d.lo[3], d.hi[3]), Isa::add(d.lo[4], d.hi[4]));
    const DV<Isa> r = mulModShoupIfmaV<Isa>(
        ctx, windowLimbs52<Isa>(k, x, f.b), f.c.w, f.c.wq);
    // x mod 2^128 from limbs 0..2, joined as in joinColumns52.
    DV<Isa> xl;
    xl.lo = Isa::and_(Isa::template shrd<12>(x.t[0], x.l[1]), f.lo_mask);
    xl.hi = Isa::and_(Isa::template shrd<24>(x.t[1], x.l[2]), f.hi_mask);
    const DV<Isa> t = condSubDwV<Isa>(ctx, addDwV<Isa>(ctx, r, xl), ctx.q2h,
                                      ctx.q2l);
    return condSubDwV<Isa>(ctx, t, ctx.qh, ctx.ql);
}

/** Backend-appropriate add: Listing-3 shape for MQX, Listing 2 otherwise. */
template <class Isa>
inline DV<Isa>
addModV(const ModCtx<Isa>& ctx, const DV<Isa>& a, const DV<Isa>& b)
{
    if constexpr (Isa::kIsMqx)
        return addModMqx<Isa>(ctx, a, b);
    else
        return addModBasic<Isa>(ctx, a, b);
}

/** Backend-appropriate sub. */
template <class Isa>
inline DV<Isa>
subModV(const ModCtx<Isa>& ctx, const DV<Isa>& a, const DV<Isa>& b)
{
    if constexpr (Isa::kIsMqx)
        return subModMqx<Isa>(ctx, a, b);
    else
        return subModBasic<Isa>(ctx, a, b);
}

} // namespace simd
} // namespace mqx
