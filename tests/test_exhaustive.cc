/**
 * @file
 * Exhaustive and differential sweeps.
 *
 * Exhaustive: for tiny moduli the *entire* operand space of the
 * double-word modular operations is enumerated — every (a, b) pair, no
 * sampling gaps — against direct big-integer arithmetic.
 *
 * Differential: all available backends are run on identical randomized
 * workloads at deliberately awkward lengths (primes, one-off-block
 * sizes) and must agree lane-for-lane; any divergence pinpoints the
 * first differing index.
 */
#include <gtest/gtest.h>

#include "blas/blas.h"
#include "mod/dword_ops.h"
#include "ntt/prime.h"
#include "test_util.h"

namespace mqx {
namespace {

class ExhaustiveTinyModulus : public testing::TestWithParam<uint64_t>
{
};

TEST_P(ExhaustiveTinyModulus, EveryOperandPair)
{
    uint64_t q = GetParam();
    Modulus m(U128{q});
    auto br32 = mod::Barrett<uint32_t>::make(
        mod::DW<uint32_t>{0, static_cast<uint32_t>(q)});
    for (uint64_t a = 0; a < q; ++a) {
        for (uint64_t b = 0; b < q; ++b) {
            U128 ua{a}, ub{b};
            EXPECT_EQ(m.add(ua, ub).lo, (a + b) % q);
            EXPECT_EQ(m.sub(ua, ub).lo, (a + q - b) % q);
            EXPECT_EQ(m.mul(ua, ub).lo, (a * b) % q);
            EXPECT_EQ(test::mulKaratsuba(m, ua, ub).lo, (a * b) % q);
            // Same sweep through the 32-bit word instantiation.
            mod::DW<uint32_t> da{0, static_cast<uint32_t>(a)};
            mod::DW<uint32_t> db{0, static_cast<uint32_t>(b)};
            EXPECT_EQ(mod::mulModSchool(da, db, br32).lo, (a * b) % q);
            EXPECT_EQ(mod::addMod(da, db,
                                  mod::DW<uint32_t>{
                                      0, static_cast<uint32_t>(q)})
                          .lo,
                      (a + b) % q);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(TinyModuli, ExhaustiveTinyModulus,
                         testing::Values(2, 3, 5, 7, 13, 17, 31, 61));

TEST(ExhaustiveBoundary, OperandsAtTheBarrettCeiling)
{
    // q at exactly 124 bits, operands within 16 of q: the densest
    // carry/correction territory, enumerated completely.
    const auto& prime = ntt::defaultBenchPrime();
    ASSERT_EQ(prime.bits, 124);
    Modulus m(prime.q);
    BigUInt qb = BigUInt::fromU128(prime.q);
    for (uint64_t da = 1; da <= 16; ++da) {
        for (uint64_t db = 1; db <= 16; ++db) {
            U128 a = prime.q - U128{da};
            U128 b = prime.q - U128{db};
            BigUInt expect =
                (BigUInt::fromU128(a) * BigUInt::fromU128(b)) % qb;
            EXPECT_EQ(m.mul(a, b), expect.toU128());
            EXPECT_EQ(test::mulKaratsuba(m, a, b), expect.toU128());
            EXPECT_EQ(m.add(a, b),
                      BigUInt::addMod(BigUInt::fromU128(a),
                                      BigUInt::fromU128(b), qb)
                          .toU128());
        }
    }
}

TEST(DifferentialFuzz, AllBackendsAgreeAtAwkwardLengths)
{
    const auto& prime = ntt::defaultBenchPrime();
    Modulus m(prime.q);
    auto backends = test::availableCorrectBackends();
    ASSERT_GE(backends.size(), 2u);
    // Lengths straddling SIMD block boundaries: primes, 8k +/- 1.
    for (size_t len : {5u, 7u, 9u, 15u, 17u, 23u, 63u, 65u, 127u, 129u}) {
        for (uint64_t seed = 0; seed < 4; ++seed) {
            auto a_u = randomResidues(len, prime.q, 0xd1f + seed * 131 + len);
            auto b_u = randomResidues(len, prime.q, 0xd2f + seed * 137 + len);
            ResidueVector a = ResidueVector::fromU128(a_u);
            ResidueVector b = ResidueVector::fromU128(b_u);
            std::vector<U128> golden_mul, golden_add;
            for (Backend be : backends) {
                ResidueVector c(len), d(len);
                blas::vmul(be, m, a.span(), b.span(), c.span());
                blas::vadd(be, m, a.span(), b.span(), d.span());
                auto got_mul = c.toU128();
                auto got_add = d.toU128();
                if (golden_mul.empty()) {
                    golden_mul = got_mul;
                    golden_add = got_add;
                    continue;
                }
                for (size_t i = 0; i < len; ++i) {
                    ASSERT_EQ(got_mul[i], golden_mul[i])
                        << "vmul " << backendName(be) << " len=" << len
                        << " seed=" << seed << " first divergence at " << i;
                    ASSERT_EQ(got_add[i], golden_add[i])
                        << "vadd " << backendName(be) << " len=" << len
                        << " seed=" << seed << " first divergence at " << i;
                }
            }
        }
    }
}

TEST(DifferentialFuzz, CarrySaturatedOperands)
{
    // Operand patterns with saturated low words: every lane forces the
    // low-word carry and the Listing-3 equality corner simultaneously.
    const auto& prime = ntt::defaultBenchPrime();
    Modulus m(prime.q);
    const size_t len = 16;
    std::vector<U128> a_u(len), b_u(len);
    for (size_t i = 0; i < len; ++i) {
        // a has max low word and varying high word; b mirrors it so
        // a.lo + b.lo always carries.
        a_u[i] = U128::fromParts(prime.q.hi - (i % 3), ~0ull);
        b_u[i] = m.reduce(U128::fromParts(i % 2 ? prime.q.hi : 0, ~0ull));
        a_u[i] = m.reduce(a_u[i]);
    }
    ResidueVector a = ResidueVector::fromU128(a_u);
    ResidueVector b = ResidueVector::fromU128(b_u);
    ResidueVector ref(len);
    blas::vadd(Backend::Scalar, m, a.span(), b.span(), ref.span());
    for (Backend be : test::availableCorrectBackends()) {
        ResidueVector c(len);
        blas::vadd(be, m, a.span(), b.span(), c.span());
        EXPECT_EQ(c.toU128(), ref.toU128()) << backendName(be);
        blas::vsub(be, m, a.span(), b.span(), c.span());
        ResidueVector ref_sub(len);
        blas::vsub(Backend::Scalar, m, a.span(), b.span(), ref_sub.span());
        EXPECT_EQ(c.toU128(), ref_sub.toU128()) << backendName(be);
    }
}

} // namespace
} // namespace mqx
