/**
 * @file
 * Scalar double-word modular arithmetic tests (paper Section 3.1).
 *
 * The oracle chain: DW<uint32_t> (64-bit double words) is verified
 * against native uint64/__int128 arithmetic — the *same template code*
 * that runs in production at 64-bit words. DW<uint64_t> is then checked
 * against BigUInt (and transitively GMP), plus algebraic property
 * sweeps across modulus widths.
 */
#include <gtest/gtest.h>

#include "bigint/biguint.h"
#include "mod/dword_ops.h"
#include "mod/modulus.h"
#include "ntt/prime.h"
#include "test_util.h"

namespace mqx {
namespace {

using mod::Barrett;
using mod::DW;

// ---------------------------------------------------------------------
// DW<uint32_t>: perfect-oracle verification of the shared template.
// ---------------------------------------------------------------------

DW<uint32_t>
dw32(uint64_t v)
{
    return DW<uint32_t>{static_cast<uint32_t>(v >> 32),
                        static_cast<uint32_t>(v)};
}

uint64_t
fromDw32(const DW<uint32_t>& v)
{
    return (static_cast<uint64_t>(v.hi) << 32) | v.lo;
}

class Dw32Property : public testing::TestWithParam<int>
{
};

TEST_P(Dw32Property, AllOpsMatchNativeUint64)
{
    int qbits = GetParam();
    SplitMix64 rng(static_cast<uint64_t>(qbits) * 7919);
    for (int trial = 0; trial < 40; ++trial) {
        // Random odd modulus of exactly qbits bits.
        uint64_t q = (rng.next() | (1ull << (qbits - 1)) | 1ull) &
                     ((qbits == 64) ? ~0ull : ((1ull << qbits) - 1));
        if (q < 3)
            continue;
        Barrett<uint32_t> br = Barrett<uint32_t>::make(dw32(q));
        for (int i = 0; i < 300; ++i) {
            uint64_t a = rng.next() % q;
            uint64_t b = rng.next() % q;
            EXPECT_EQ(fromDw32(mod::addMod(dw32(a), dw32(b), dw32(q))),
                      (a + b >= q || a + b < a) ? a + b - q : a + b);
            EXPECT_EQ(fromDw32(mod::subMod(dw32(a), dw32(b), dw32(q))),
                      a >= b ? a - b : a - b + q);
            unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
            uint64_t expect = static_cast<uint64_t>(p % q);
            EXPECT_EQ(fromDw32(mod::mulModSchool(dw32(a), dw32(b), br)),
                      expect)
                << "a=" << a << " b=" << b << " q=" << q;
            EXPECT_EQ(fromDw32(mod::mulModKaratsuba(dw32(a), dw32(b), br)),
                      expect)
                << "a=" << a << " b=" << b << " q=" << q;
        }
        // Boundary operands.
        uint64_t edges[] = {0, 1, q / 2, q - 2, q - 1};
        for (uint64_t a : edges) {
            for (uint64_t b : edges) {
                unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
                EXPECT_EQ(fromDw32(mod::mulModSchool(dw32(a), dw32(b), br)),
                          static_cast<uint64_t>(p % q));
                EXPECT_EQ(fromDw32(mod::addMod(dw32(a), dw32(b), dw32(q))),
                          static_cast<uint64_t>(
                              (static_cast<unsigned __int128>(a) + b) % q));
            }
        }
    }
}

// The Barrett regime for 32-bit words allows up to 2*32-4 = 60 bits.
INSTANTIATE_TEST_SUITE_P(QBitSweep, Dw32Property,
                         testing::Values(2, 3, 8, 16, 31, 32, 33, 40, 48, 55,
                                         59, 60));

TEST(Dw32, BarrettRejectsOverwideModulus)
{
    EXPECT_THROW(Barrett<uint32_t>::make(dw32(1ull << 61)), InvalidArgument);
    EXPECT_THROW(Barrett<uint32_t>::make(dw32(0)), InvalidArgument);
    EXPECT_THROW(Barrett<uint32_t>::make(dw32(1)), InvalidArgument);
    EXPECT_NO_THROW(Barrett<uint32_t>::make(dw32((1ull << 60) - 93)));
}

// ---------------------------------------------------------------------
// DW<uint64_t>: BigUInt oracle + properties.
// ---------------------------------------------------------------------

U128
mulModOracle(const U128& a, const U128& b, const U128& q)
{
    BigUInt p = BigUInt::fromU128(a) * BigUInt::fromU128(b);
    return (p % BigUInt::fromU128(q)).toU128();
}

class Dw64Property : public testing::TestWithParam<int>
{
};

TEST_P(Dw64Property, MulModMatchesBigUInt)
{
    int qbits = GetParam();
    SplitMix64 rng(static_cast<uint64_t>(qbits) * 104729);
    for (int trial = 0; trial < 8; ++trial) {
        U128 q = (rng.nextU128() >> (128 - qbits)) | (U128{1} << (qbits - 1)) |
                 U128{1};
        Modulus m(q);
        EXPECT_EQ(m.bits(), qbits);
        for (int i = 0; i < 200; ++i) {
            U128 a = rng.nextBelow(q);
            U128 b = rng.nextBelow(q);
            U128 expect = mulModOracle(a, b, q);
            EXPECT_EQ(m.mul(a, b), expect);
            EXPECT_EQ(test::mulKaratsuba(m, a, b), expect);
            EXPECT_EQ(m.add(a, b), m.addWords(a, b));
            EXPECT_EQ(m.sub(a, b), m.subWords(a, b));
        }
        // Edges: operands at q-1, 0, 1.
        U128 edges[] = {U128{0}, U128{1}, q - U128{1}};
        for (const U128& a : edges) {
            for (const U128& b : edges) {
                EXPECT_EQ(m.mul(a, b), mulModOracle(a, b, q));
                EXPECT_EQ(m.addWords(a, b),
                          (BigUInt::addMod(BigUInt::fromU128(a),
                                           BigUInt::fromU128(b),
                                           BigUInt::fromU128(q)))
                              .toU128());
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(QBitSweep, Dw64Property,
                         testing::Values(2, 16, 33, 64, 65, 66, 80, 96, 100,
                                         112, 120, 123, 124));

TEST(Dw64, ModulusValidation)
{
    EXPECT_THROW(Modulus(U128{0}), InvalidArgument);
    EXPECT_THROW(Modulus(U128{1}), InvalidArgument);
    EXPECT_THROW(Modulus(U128{1} << 124), InvalidArgument); // 125 bits
    EXPECT_NO_THROW(Modulus((U128{1} << 124) - U128{59}));  // 124 bits
}

TEST(Dw64, AlgebraicProperties)
{
    const auto& prime = ntt::smallTestPrime();
    Modulus m(prime.q);
    SplitMix64 rng(2024);
    for (int i = 0; i < 500; ++i) {
        U128 a = rng.nextBelow(prime.q);
        U128 b = rng.nextBelow(prime.q);
        U128 c = rng.nextBelow(prime.q);
        // Commutativity and associativity.
        EXPECT_EQ(m.mul(a, b), m.mul(b, a));
        EXPECT_EQ(m.add(a, b), m.add(b, a));
        EXPECT_EQ(m.mul(m.mul(a, b), c), m.mul(a, m.mul(b, c)));
        EXPECT_EQ(m.add(m.add(a, b), c), m.add(a, m.add(b, c)));
        // Distributivity.
        EXPECT_EQ(m.mul(a, m.add(b, c)),
                  m.add(m.mul(a, b), m.mul(a, c)));
        // Identities and inverses.
        EXPECT_EQ(m.mul(a, U128{1}), a);
        EXPECT_EQ(m.add(a, U128{0}), a);
        EXPECT_EQ(m.sub(m.add(a, b), b), a);
        if (!a.isZero()) {
            EXPECT_EQ(m.mul(a, m.inverse(a)), U128{1});
        }
    }
}

TEST(Dw64, PowMatchesBigUInt)
{
    const auto& prime = ntt::defaultBenchPrime();
    Modulus m(prime.q);
    BigUInt qb = BigUInt::fromU128(prime.q);
    SplitMix64 rng(31337);
    for (int i = 0; i < 50; ++i) {
        U128 base = rng.nextBelow(prime.q);
        U128 exp = rng.nextU128() >> 64;
        EXPECT_EQ(m.pow(base, exp),
                  BigUInt::powMod(BigUInt::fromU128(base),
                                  BigUInt::fromU128(exp), qb)
                      .toU128());
    }
}

TEST(Dw64, MuMatchesDefinition)
{
    // mu = floor(2^(2b) / q) (Section 2.1).
    const auto& prime = ntt::defaultBenchPrime();
    Modulus m(prime.q);
    BigUInt expect = (BigUInt{1} << (2 * m.bits())) / BigUInt::fromU128(prime.q);
    EXPECT_EQ(m.mu(), expect.toU128());
}

TEST(Dw64, ReduceArbitraryValues)
{
    const auto& prime = ntt::smallTestPrime();
    Modulus m(prime.q);
    SplitMix64 rng(404);
    for (int i = 0; i < 200; ++i) {
        U128 x = rng.nextU128();
        U128 r = m.reduce(x);
        EXPECT_TRUE(r < prime.q);
        EXPECT_EQ(r, (BigUInt::fromU128(x) % BigUInt::fromU128(prime.q))
                         .toU128());
    }
}

TEST(Dw64, KaratsubaEqualsSchoolbookFullProduct)
{
    SplitMix64 rng(606);
    for (int i = 0; i < 5000; ++i) {
        DW<uint64_t> a{rng.next(), rng.next()};
        DW<uint64_t> b{rng.next(), rng.next()};
        auto s = mod::mulFullSchool(a, b);
        auto k = mod::mulFullKaratsuba(a, b);
        EXPECT_EQ(s.w0, k.w0);
        EXPECT_EQ(s.w1, k.w1);
        EXPECT_EQ(s.w2, k.w2);
        EXPECT_EQ(s.w3, k.w3);
    }
}

TEST(Dw64, ListingOneWordOnlyVariantMatchesNative)
{
    // The Listing-1 dataflow (words-only) must agree with the native
    // __int128 path bit-for-bit — the paper ships both.
    const auto& prime = ntt::defaultBenchPrime();
    Modulus m(prime.q);
    SplitMix64 rng(808);
    for (int i = 0; i < 2000; ++i) {
        U128 a = rng.nextBelow(prime.q);
        U128 b = rng.nextBelow(prime.q);
        EXPECT_EQ(m.add(a, b), m.addWords(a, b));
        EXPECT_EQ(m.sub(a, b), m.subWords(a, b));
    }
}

} // namespace
} // namespace mqx
