/**
 * @file
 * Public convenience wrapper around one modulus: validated construction,
 * precomputed Barrett parameters, and both scalar variants of the paper's
 * double-word modular arithmetic.
 *
 * The paper implements two scalar versions (Section 3.1): one computing
 * in native 128-bit values ("used for benchmarking, as it allows the
 * compiler to exploit specialized assembly instructions such as add with
 * carry") and one using only 64-bit words (Listing 1; "essential for
 * SIMD-vectorized implementations"). Modulus exposes both for add and
 * sub; they are bit-identical and the test suite checks that. mul has
 * one form, words only: the 256-bit product has no native type.
 */
#pragma once

#include "mod/dword_ops.h"
#include "u128/u128.h"

namespace mqx {

/**
 * A fixed modulus q with all precomputation required by the kernels.
 * Copyable value type; cheap to pass by const reference.
 */
class Modulus
{
  public:
    /**
     * @param q modulus, 2 <= q < 2^124 (Barrett headroom, Section 2.1).
     * @throws InvalidArgument outside that range.
     */
    explicit Modulus(const U128& q);

    const U128& value() const { return q_; }
    int bits() const { return barrett_.qbits(); }
    const mod::Barrett<uint64_t>& barrett() const { return barrett_; }

    /** mu = floor(2^(2 bits(q)) / q). */
    U128 mu() const { return mod::fromDw(barrett_.mu()); }

    // -- Word-only variant (Listing 1 shape; translates to SIMD) --------

    U128
    addWords(const U128& a, const U128& b) const
    {
        return mod::fromDw(mod::addMod(mod::toDw(a), mod::toDw(b),
                                       mod::toDw(q_)));
    }

    U128
    subWords(const U128& a, const U128& b) const
    {
        return mod::fromDw(mod::subMod(mod::toDw(a), mod::toDw(b),
                                       mod::toDw(q_)));
    }

    // -- Native variant (unsigned __int128 when available) ---------------

    /** c = a + b mod q for a, b < q. */
    U128
    add(const U128& a, const U128& b) const
    {
#if MQX_HAVE_INT128
        unsigned __int128 s = a.toNative() + b.toNative();
        unsigned __int128 qn = q_.toNative();
        if (s >= qn)
            s -= qn;
        return U128::fromNative(s);
#else
        return addWords(a, b);
#endif
    }

    /** c = a - b mod q for a, b < q. */
    U128
    sub(const U128& a, const U128& b) const
    {
#if MQX_HAVE_INT128
        unsigned __int128 an = a.toNative(), bn = b.toNative();
        unsigned __int128 d = an - bn;
        if (an < bn)
            d += q_.toNative();
        return U128::fromNative(d);
#else
        return subWords(a, b);
#endif
    }

    // -- Multiply (words only) -------------------------------------------

    /** c = a * b mod q for a, b < q (Barrett, schoolbook product, Eq. 8). */
    U128
    mul(const U128& a, const U128& b) const
    {
        return mod::fromDw(
            mod::mulModSchool(mod::toDw(a), mod::toDw(b), barrett_));
    }

    /** a^e mod q, square-and-multiply over the scalar mulmod. */
    U128 pow(const U128& base, const U128& exponent) const;

    /** Multiplicative inverse via Fermat (q must be prime). */
    U128 inverse(const U128& a) const;

    /** Reduce an arbitrary 128-bit value into [0, q). */
    U128 reduce(const U128& x) const;

    /**
     * Shoup companion wq = floor(w * 2^128 / q) of a fixed multiplicand
     * (the quotient mod::mulModShoup consumes), in word arithmetic.
     * With rho = w * 2^128 mod q = w * (2^128 mod q) mod q,
     *
     *     w * 2^128 = wq * q + rho   =>   wq = -rho * q^-1  (mod 2^128),
     *
     * and wq < 2^128 because w < q, so that residue is wq itself: one
     * Barrett multiply and one wrapping 128-bit multiply. The BigUInt
     * mod::shoupPrecompute computes the same word by long division and
     * serves as the test oracle.
     *
     * @throws InvalidArgument unless q is odd and w < q.
     */
    U128
    shoupCompanion(const U128& w) const
    {
        checkArg((q_.lo & 1) != 0,
                 "Modulus::shoupCompanion: modulus must be odd");
        checkArg(w < q_, "Modulus::shoupCompanion: multiplicand must be < q");
        return (U128{0} - mul(w, r128_)) * q_inv_;
    }

  private:
    U128 q_;
    mod::Barrett<uint64_t> barrett_;
    U128 r128_;  ///< 2^128 mod q
    U128 q_inv_; ///< q^-1 mod 2^128 (0 for even q)
};

} // namespace mqx
