/**
 * @file
 * Scalar double-word modular arithmetic (paper Section 3.1).
 *
 * Everything here is templated on the machine word type W. The value of a
 * double word is hi * 2^w + lo with w = bits(W) (paper Eq. 5, w0 = w).
 * Two instantiations matter:
 *
 *  - W = uint64_t: the production 128-bit arithmetic. This is the
 *    Listing-1 variant that computes with single words only — the shape
 *    that translates 1:1 to SIMD lanes.
 *  - W = uint32_t: a 64-bit double word whose every operation can be
 *    checked against native uint64_t / __int128 arithmetic. The test
 *    suite uses it as a perfect oracle for the shared algorithm.
 *
 * The modular operations implement Eq. 2 (addition), Eq. 3 (subtraction),
 * and Barrett-reduced multiplication (Eq. 4) with both the schoolbook
 * (Eq. 8) and Karatsuba (Eq. 9) product. Barrett requires
 * bits(q) <= 2w - 4 so that mu fits in a double word (Section 2.1).
 */
#pragma once

#include <cstdint>
#include <type_traits>

#include "bigint/biguint.h"
#include "core/config.h"
#include "u128/u128.h"

namespace mqx {
namespace mod {

/** Single-word carry/borrow/multiply primitives for a word type W. */
template <typename W>
struct WordOps;

template <>
struct WordOps<uint64_t>
{
    static constexpr int kBits = 64;

    static constexpr uint64_t
    addc(uint64_t a, uint64_t b, uint64_t ci, uint64_t& out)
    {
        return addc64(a, b, ci, out);
    }

    static constexpr uint64_t
    subb(uint64_t a, uint64_t b, uint64_t bi, uint64_t& out)
    {
        return subb64(a, b, bi, out);
    }

    static constexpr void
    mulWide(uint64_t a, uint64_t b, uint64_t& hi, uint64_t& lo)
    {
        mulWide64(a, b, hi, lo);
    }
};

template <>
struct WordOps<uint32_t>
{
    static constexpr int kBits = 32;

    static constexpr uint32_t
    addc(uint32_t a, uint32_t b, uint32_t ci, uint32_t& out)
    {
        uint64_t s = static_cast<uint64_t>(a) + b + ci;
        out = static_cast<uint32_t>(s);
        return static_cast<uint32_t>(s >> 32);
    }

    static constexpr uint32_t
    subb(uint32_t a, uint32_t b, uint32_t bi, uint32_t& out)
    {
        uint64_t d = static_cast<uint64_t>(a) - b - bi;
        out = static_cast<uint32_t>(d);
        return static_cast<uint32_t>((d >> 32) & 1);
    }

    static constexpr void
    mulWide(uint32_t a, uint32_t b, uint32_t& hi, uint32_t& lo)
    {
        uint64_t p = static_cast<uint64_t>(a) * b;
        hi = static_cast<uint32_t>(p >> 32);
        lo = static_cast<uint32_t>(p);
    }
};

/** Double word: value = hi * 2^w + lo (paper Eq. 5). */
template <typename W>
struct DW
{
    W hi = 0;
    W lo = 0;

    friend constexpr bool
    operator==(const DW& a, const DW& b)
    {
        return a.hi == b.hi && a.lo == b.lo;
    }

    friend constexpr bool
    operator<(const DW& a, const DW& b)
    {
        return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
    }

    friend constexpr bool operator!=(const DW& a, const DW& b) { return !(a == b); }
    friend constexpr bool operator>=(const DW& a, const DW& b) { return !(a < b); }

    constexpr bool isZero() const { return hi == 0 && lo == 0; }

    constexpr int
    bits() const
    {
        int n = 0;
        for (W x = hi; x; x >>= 1)
            ++n;
        if (n)
            return n + WordOps<W>::kBits;
        for (W x = lo; x; x >>= 1)
            ++n;
        return n;
    }
};

/** Quad word holding a full double-word product; w0 least significant. */
template <typename W>
struct QW
{
    W w0 = 0;
    W w1 = 0;
    W w2 = 0;
    W w3 = 0;
};

/** DW<uint64_t> <-> U128 (identical layout semantics). */
constexpr DW<uint64_t>
toDw(const U128& v)
{
    return DW<uint64_t>{v.hi, v.lo};
}

constexpr U128
fromDw(const DW<uint64_t>& v)
{
    return U128::fromParts(v.hi, v.lo);
}

/** Wrap-around double-word addition; returns the carry out (0/1). */
template <typename W>
constexpr W
addDw(const DW<W>& a, const DW<W>& b, DW<W>& out)
{
    W c = WordOps<W>::addc(a.lo, b.lo, 0, out.lo);
    return WordOps<W>::addc(a.hi, b.hi, c, out.hi);
}

/** Wrap-around double-word subtraction; returns the borrow out (0/1). */
template <typename W>
constexpr W
subDw(const DW<W>& a, const DW<W>& b, DW<W>& out)
{
    W br = WordOps<W>::subb(a.lo, b.lo, 0, out.lo);
    return WordOps<W>::subb(a.hi, b.hi, br, out.hi);
}

/**
 * Full double-word product via the schoolbook method (Eq. 8): four
 * widening word multiplies plus carry propagation.
 */
template <typename W>
constexpr QW<W>
mulFullSchool(const DW<W>& a, const DW<W>& b)
{
    using Ops = WordOps<W>;
    W p00h = 0, p00l = 0, p01h = 0, p01l = 0;
    W p10h = 0, p10l = 0, p11h = 0, p11l = 0;
    Ops::mulWide(a.lo, b.lo, p00h, p00l); // a1*b1
    Ops::mulWide(a.lo, b.hi, p01h, p01l); // a1*b0
    Ops::mulWide(a.hi, b.lo, p10h, p10l); // a0*b1
    Ops::mulWide(a.hi, b.hi, p11h, p11l); // a0*b0

    QW<W> r;
    r.w0 = p00l;
    W c = Ops::addc(p00h, p01l, 0, r.w1);
    W c2 = Ops::addc(p01h, p11l, c, r.w2);
    Ops::addc(p11h, 0, c2, r.w3);
    c = Ops::addc(r.w1, p10l, 0, r.w1);
    c2 = Ops::addc(r.w2, p10h, c, r.w2);
    r.w3 += c2;
    return r;
}

/**
 * Full double-word product via Karatsuba (Eq. 9): three widening word
 * multiplies; the cross term (a0+a1)(b0+b1) - a0b0 - a1b1 needs explicit
 * carry handling because the sums can overflow one word.
 */
template <typename W>
constexpr QW<W>
mulFullKaratsuba(const DW<W>& a, const DW<W>& b)
{
    using Ops = WordOps<W>;
    W llh = 0, lll = 0; // a1*b1
    W hhh = 0, hhl = 0; // a0*b0
    Ops::mulWide(a.lo, b.lo, llh, lll);
    Ops::mulWide(a.hi, b.hi, hhh, hhl);

    // sa = a0 + a1 (with carry ca), sb = b0 + b1 (with carry cb).
    W sa = 0, sb = 0;
    W ca = Ops::addc(a.hi, a.lo, 0, sa);
    W cb = Ops::addc(b.hi, b.lo, 0, sb);

    // mid = sa*sb + (ca ? sb : 0)*2^w + (cb ? sa : 0)*2^w + ca*cb*2^2w,
    // a 3-word quantity; m0 least significant.
    W mh = 0, ml = 0;
    Ops::mulWide(sa, sb, mh, ml);
    W m0 = ml, m1 = mh, m2 = ca & cb;
    if (ca) {
        W c = Ops::addc(m1, sb, 0, m1);
        m2 += c;
    }
    if (cb) {
        W c = Ops::addc(m1, sa, 0, m1);
        m2 += c;
    }

    // mid -= a0b0 + a1b1 (fits: mid >= both by construction).
    W br = Ops::subb(m0, lll, 0, m0);
    br = Ops::subb(m1, llh, br, m1);
    m2 -= br;
    br = Ops::subb(m0, hhl, 0, m0);
    br = Ops::subb(m1, hhh, br, m1);
    m2 -= br;

    // r = a0b0*2^2w + mid*2^w + a1b1.
    QW<W> r;
    r.w0 = lll;
    W c = Ops::addc(llh, m0, 0, r.w1);
    W c2 = Ops::addc(hhl, m1, c, r.w2);
    Ops::addc(hhh, m2, c2, r.w3);
    return r;
}

/**
 * Truncating right shift of a quad word to a double word.
 * The caller guarantees the true value of (x >> s) fits in 2 words;
 * s must be in [1, 2w).
 */
template <typename W>
constexpr DW<W>
shrQwToDw(const QW<W>& x, int s)
{
    constexpr int w = WordOps<W>::kBits;
    DW<W> r;
    if (s >= w) {
        int t = s - w;
        if (t == 0) {
            r.lo = x.w1;
            r.hi = x.w2;
        } else {
            r.lo = static_cast<W>((x.w1 >> t) | (x.w2 << (w - t)));
            r.hi = static_cast<W>((x.w2 >> t) | (x.w3 << (w - t)));
        }
    } else {
        r.lo = static_cast<W>((x.w0 >> s) | (x.w1 << (w - s)));
        r.hi = static_cast<W>((x.w1 >> s) | (x.w2 << (w - s)));
    }
    return r;
}

/** Low double word (wrap-around) of the product a*b. */
template <typename W>
constexpr DW<W>
mulLowDw(const DW<W>& a, const DW<W>& b)
{
    using Ops = WordOps<W>;
    W ph = 0, pl = 0;
    Ops::mulWide(a.lo, b.lo, ph, pl);
    DW<W> r;
    r.lo = pl;
    r.hi = static_cast<W>(ph + static_cast<W>(a.lo * b.hi) +
                          static_cast<W>(a.hi * b.lo));
    return r;
}

/**
 * Precomputed Barrett parameters for a fixed modulus q (Eq. 4).
 *
 * mu = floor(2^(2b) / q) where b = bits(q); mu fits in a double word for
 * any q with 2 <= b <= 2w - 4. The reduction uses the classic HAC-14.42
 * estimate, which leaves a remainder in [0, 3q) — at most two conditional
 * subtractions.
 */
template <typename W>
class Barrett
{
  public:
    /**
     * @throws InvalidArgument if q < 2 or bits(q) > 2w - 4 (the paper's
     * Barrett headroom requirement, e.g. 124 bits for 128-bit words).
     */
    static Barrett
    make(const DW<W>& q)
    {
        constexpr int w = WordOps<W>::kBits;
        int b = q.bits();
        checkArg(b >= 2, "Barrett: modulus must be >= 2");
        checkArg(b <= 2 * w - 4,
                 "Barrett: modulus exceeds 2w-4 bits (mu would overflow)");

        // mu = floor(2^(2b) / q), computed with BigUInt on the setup path.
        // Reassemble q from its W-sized halves (value = hi * 2^w + lo).
        BigUInt qb = (BigUInt{static_cast<uint64_t>(q.hi)} << w) +
                     BigUInt{static_cast<uint64_t>(q.lo)};
        BigUInt mu_big = (BigUInt{1} << (2 * b)) / qb;
        U128 mu128 = mu_big.toU128();

        Barrett br;
        br.q_ = q;
        if constexpr (w == 64) {
            br.mu_.hi = static_cast<W>(mu128.hi);
            br.mu_.lo = static_cast<W>(mu128.lo);
        } else {
            br.mu_.hi = static_cast<W>(mu128.lo >> w);
            br.mu_.lo = static_cast<W>(mu128.lo);
        }
        br.qbits_ = b;
        return br;
    }

    const DW<W>& q() const { return q_; }
    const DW<W>& mu() const { return mu_; }
    int qbits() const { return qbits_; }

    /**
     * Reduce a full product x = a*b (a, b < q) to x mod q.
     */
    constexpr DW<W>
    reduce(const QW<W>& x) const
    {
        // x1 = floor(x / 2^(b-1)): fits in a double word since x < 2^2b.
        DW<W> x1 = shrQwToDw(x, qbits_ - 1);
        // e = floor(x1 * mu / 2^(b+1)): the quotient estimate.
        QW<W> p = mulFullSchool(x1, mu_);
        DW<W> e = shrQwToDw(p, qbits_ + 1);
        // c = (x - e*q) mod 2^2w; the true value is < 3q so the low
        // double word is exact.
        DW<W> eq = mulLowDw(e, q_);
        DW<W> xlow{x.w1, x.w0};
        DW<W> c;
        subDw(xlow, eq, c);
        // At most two correction subtractions (HAC 14.42).
        if (c >= q_)
            subDw(c, q_, c);
        if (c >= q_)
            subDw(c, q_, c);
        return c;
    }

  private:
    DW<W> q_{};
    DW<W> mu_{};
    int qbits_ = 0;
};

/**
 * Modular addition c = a + b mod q for a, b < q (Eq. 2 lifted to double
 * words — the branch-free Listing-1 dataflow).
 */
template <typename W>
constexpr DW<W>
addMod(const DW<W>& a, const DW<W>& b, const DW<W>& q)
{
    DW<W> t;
    W carry = addDw(a, b, t);          // t = a + b, carry out c2
    DW<W> d;
    W borrow = subDw(t, q, d);         // d = t - q
    // Select d when (carry:t) >= q, i.e. carry set or t >= q.
    bool take_d = carry || !borrow;
    DW<W> c;
    c.hi = take_d ? d.hi : t.hi;
    c.lo = take_d ? d.lo : t.lo;
    return c;
}

/** Modular subtraction c = a - b mod q for a, b < q (Eq. 3 + Eq. 7). */
template <typename W>
constexpr DW<W>
subMod(const DW<W>& a, const DW<W>& b, const DW<W>& q)
{
    DW<W> d;
    W borrow = subDw(a, b, d);
    DW<W> dq;
    addDw(d, q, dq);
    DW<W> c;
    c.hi = borrow ? dq.hi : d.hi;
    c.lo = borrow ? dq.lo : d.lo;
    return c;
}

/**
 * Double-word left shift by one: 2x with the cross-word carry. The
 * lazy-reduction kernels use it for the 2q bound (q has >= 4 bits of
 * double-word headroom, so 2q never overflows).
 */
template <typename W>
constexpr DW<W>
shl1Dw(const DW<W>& x)
{
    constexpr int w = WordOps<W>::kBits;
    return DW<W>{static_cast<W>((x.hi << 1) | (x.lo >> (w - 1))),
                 static_cast<W>(x.lo << 1)};
}

/**
 * Conditional canonicalizing subtract: x - b when x >= b, else x
 * (branch-free select). The lazy-reduction pipeline uses it with
 * b = 2q between stages and b = q for final canonicalization.
 */
template <typename W>
constexpr DW<W>
condSubDw(const DW<W>& x, const DW<W>& b)
{
    DW<W> d;
    W borrow = subDw(x, b, d);
    DW<W> r;
    r.hi = borrow ? x.hi : d.hi;
    r.lo = borrow ? x.lo : d.lo;
    return r;
}

/**
 * Shoup companion of a fixed multiplicand: wq = floor(w * 2^(2w0) / q)
 * with w0 = bits(W), i.e. the precomputed quotient that lets
 * mulModShoup() skip Barrett's estimate product entirely.
 *
 * Test oracle only: one BigUInt long division per call. Plan and table
 * derivation use Modulus::shoupCompanion (and w64::Modulus64's 64-bit
 * form), which reach the same word in O(1) word arithmetic; the tests
 * compare them against this.
 *
 * @throws InvalidArgument unless w < q (required for wq to fit in a
 * double word).
 */
template <typename W>
inline DW<W>
shoupPrecompute(const DW<W>& w, const DW<W>& q)
{
    constexpr int kb = WordOps<W>::kBits;
    checkArg(w < q, "shoupPrecompute: multiplicand must be < q");
    BigUInt wb = (BigUInt{static_cast<uint64_t>(w.hi)} << kb) +
                 BigUInt{static_cast<uint64_t>(w.lo)};
    BigUInt qb = (BigUInt{static_cast<uint64_t>(q.hi)} << kb) +
                 BigUInt{static_cast<uint64_t>(q.lo)};
    BigUInt wq_big = (wb << (2 * kb)) / qb;
    U128 wq128 = wq_big.toU128();

    DW<W> wq;
    if constexpr (kb == 64) {
        wq.hi = static_cast<W>(wq128.hi);
        wq.lo = static_cast<W>(wq128.lo);
    } else {
        wq.hi = static_cast<W>(wq128.lo >> kb);
        wq.lo = static_cast<W>(wq128.lo);
    }
    return wq;
}

/**
 * Shoup/Harvey modular multiplication by a fixed w with precomputed
 * quotient wq = floor(w * beta / q) (Modulus::shoupCompanion): with
 * beta = 2^(2w0),
 *
 *     h = floor(a * wq / beta)        (one full product, top half)
 *     r = (a*w - h*q) mod beta        (two low products)
 *
 * Since wq = (w*beta - r0)/q with r0 in [0, q), the estimate satisfies
 * floor(a*w/q) - 1 <= h <= floor(a*w/q) for ANY double word a, so
 *
 *     r = a*w mod q  +  (0 or q)   — i.e. r is in [0, 2q).
 *
 * No shifts, no correction subtractions: this replaces Barrett's three
 * full double-word products per butterfly with one full product and two
 * low halves, and the [0, 2q) result feeds the lazy butterfly directly.
 * Callers needing a canonical value finish with condSubDw(r, q).
 *
 * Requires w < q and 2q < beta (any Barrett-compatible q qualifies);
 * a is unrestricted — in particular the lazy range [0, 4q) is fine.
 */
template <typename W>
constexpr DW<W>
mulModShoup(const DW<W>& a, const DW<W>& w, const DW<W>& wq, const DW<W>& q)
{
    QW<W> p = mulFullSchool(a, wq);
    DW<W> h{p.w3, p.w2};
    DW<W> aw = mulLowDw(a, w);
    DW<W> hq = mulLowDw(h, q);
    DW<W> r;
    subDw(aw, hq, r);
    return r;
}

/** Modular multiplication, schoolbook product + Barrett reduction. */
template <typename W>
constexpr DW<W>
mulModSchool(const DW<W>& a, const DW<W>& b, const Barrett<W>& br)
{
    return br.reduce(mulFullSchool(a, b));
}

/** Modular multiplication, Karatsuba product + Barrett reduction. */
template <typename W>
constexpr DW<W>
mulModKaratsuba(const DW<W>& a, const DW<W>& b, const Barrett<W>& br)
{
    return br.reduce(mulFullKaratsuba(a, b));
}

} // namespace mod
} // namespace mqx
