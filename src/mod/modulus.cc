/**
 * @file
 * Out-of-line Modulus operations (construction, exponentiation,
 * inversion, reduction).
 */
#include "mod/modulus.h"

namespace mqx {

Modulus::Modulus(const U128& q)
    : q_(q), barrett_(mod::Barrett<uint64_t>::make(mod::toDw(q))),
      r128_(reduce(U128{0} - q))
{
    // Newton's step x <- x (2 - q x) doubles the correct low bits of
    // q^-1 mod 2^128; x = q starts with 3 (q^2 = 1 mod 8 for odd q), so
    // six steps reach 192 >= 128.
    if ((q.lo & 1) != 0) {
        U128 x = q;
        for (int i = 0; i < 6; ++i)
            x = x * (U128{2} - q * x);
        q_inv_ = x;
    }
}

U128
Modulus::pow(const U128& base, const U128& exponent) const
{
    U128 b = reduce(base);
    U128 result{1};
    if (q_ == U128{1})
        return U128{0};
    for (int i = exponent.bits() - 1; i >= 0; --i) {
        result = mul(result, result);
        if (exponent.bit(i))
            result = mul(result, b);
    }
    return result;
}

U128
Modulus::inverse(const U128& a) const
{
    checkArg(!a.isZero(), "Modulus::inverse: zero has no inverse");
    // Fermat's little theorem: a^(q-2) mod q for prime q.
    U128 e = q_ - U128{2};
    U128 inv = pow(a, e);
    checkArg(mul(inv, reduce(a)) == U128{1},
             "Modulus::inverse: modulus is not prime");
    return inv;
}

U128
Modulus::reduce(const U128& x) const
{
    if (x < q_)
        return x;
    return mod128(x, q_);
}

} // namespace mqx
