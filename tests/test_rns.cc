/**
 * @file
 * RNS tests: CRT decompose/reconstruct roundtrips, ring homomorphism,
 * and the end-to-end integration that ties the whole library together —
 * a negacyclic polynomial product over a multi-prime modulus Q computed
 * channel-wise by engine::Engine with the SIMD kernels must equal the
 * same product computed directly in BigUInt arithmetic mod Q.
 */
#include <gtest/gtest.h>

#include "engine/engine.h"
#include "rns/rns.h"
#include "test_util.h"

namespace mqx {
namespace {

BigUInt
randomBelow(SplitMix64& rng, const BigUInt& bound)
{
    // Rejection-free: random value mod bound (slight bias irrelevant).
    BigUInt v;
    int limbs = (bound.bits() + 63) / 64 + 1;
    for (int i = 0; i < limbs; ++i)
        v = (v << 64) + BigUInt{rng.next()};
    return v % bound;
}

TEST(RnsBasis, ConstructionAndValidation)
{
    rns::RnsBasis basis(62, 16, 3);
    EXPECT_EQ(basis.size(), 3u);
    EXPECT_NE(basis.prime(0).q, basis.prime(1).q);
    EXPECT_NE(basis.prime(1).q, basis.prime(2).q);
    // Q = q0*q1*q2.
    BigUInt expect = BigUInt::fromU128(basis.prime(0).q) *
                     BigUInt::fromU128(basis.prime(1).q) *
                     BigUInt::fromU128(basis.prime(2).q);
    EXPECT_EQ(basis.bigModulus(), expect);
    // Duplicate primes rejected.
    auto p = ntt::findNttPrime(40, 8);
    EXPECT_THROW(rns::RnsBasis({p, p}), InvalidArgument);
    EXPECT_THROW(rns::RnsBasis(std::vector<ntt::NttPrime>{}),
                 InvalidArgument);
}

TEST(RnsBasis, DecomposeReconstructRoundTrip)
{
    rns::RnsBasis basis(62, 16, 4); // Q ~ 248 bits
    SplitMix64 rng(404);
    for (int i = 0; i < 200; ++i) {
        BigUInt x = randomBelow(rng, basis.bigModulus());
        auto residues = basis.decompose(x);
        ASSERT_EQ(residues.size(), 4u);
        EXPECT_EQ(basis.reconstruct(residues), x);
    }
    // Edges.
    EXPECT_EQ(basis.reconstruct(basis.decompose(BigUInt{})), BigUInt{});
    BigUInt qm1 = basis.bigModulus() - BigUInt{1};
    EXPECT_EQ(basis.reconstruct(basis.decompose(qm1)), qm1);
    EXPECT_THROW(basis.decompose(basis.bigModulus()), InvalidArgument);
}

TEST(RnsBasis, CrtHomomorphism)
{
    rns::RnsBasis basis(60, 12, 3);
    SplitMix64 rng(505);
    for (int i = 0; i < 100; ++i) {
        BigUInt x = randomBelow(rng, basis.bigModulus());
        BigUInt y = randomBelow(rng, basis.bigModulus());
        auto rx = basis.decompose(x);
        auto ry = basis.decompose(y);
        // Channel-wise ops equal big-integer ops mod Q.
        std::vector<U128> sum(basis.size()), prod(basis.size());
        for (size_t c = 0; c < basis.size(); ++c) {
            sum[c] = basis.modulus(c).add(rx[c], ry[c]);
            prod[c] = basis.modulus(c).mul(rx[c], ry[c]);
        }
        EXPECT_EQ(basis.reconstruct(sum),
                  BigUInt::addMod(x, y, basis.bigModulus()));
        EXPECT_EQ(basis.reconstruct(prod),
                  BigUInt::mulMod(x, y, basis.bigModulus()));
    }
}

TEST(RnsPolynomial, CoefficientsRoundTrip)
{
    rns::RnsBasis basis(62, 16, 3);
    SplitMix64 rng(606);
    const size_t n = 16;
    std::vector<BigUInt> coeffs(n);
    for (auto& c : coeffs)
        c = randomBelow(rng, basis.bigModulus());
    auto poly = rns::RnsPolynomial::fromCoefficients(basis, coeffs);
    EXPECT_EQ(poly.n(), n);
    EXPECT_EQ(poly.toCoefficients(), coeffs);
}

TEST(RnsEngine, PointwiseOpsMatchBigIntegerOps)
{
    rns::RnsBasis basis(62, 16, 3);
    engine::Engine eng(Backend::Scalar, 1);
    SplitMix64 rng(707);
    const size_t n = 32;
    std::vector<BigUInt> fa(n), fb(n);
    for (size_t i = 0; i < n; ++i) {
        fa[i] = randomBelow(rng, basis.bigModulus());
        fb[i] = randomBelow(rng, basis.bigModulus());
    }
    auto pa = rns::RnsPolynomial::fromCoefficients(basis, fa);
    auto pb = rns::RnsPolynomial::fromCoefficients(basis, fb);

    auto sum = eng.add(pa, pb).toCoefficients();
    auto prod = eng.mul(pa, pb).toCoefficients();
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(sum[i], BigUInt::addMod(fa[i], fb[i], basis.bigModulus()));
        EXPECT_EQ(prod[i], BigUInt::mulMod(fa[i], fb[i], basis.bigModulus()));
    }
}

TEST(RnsEngine, NegacyclicPolymulMatchesBigIntegerSchoolbook)
{
    // The flagship integration test: SIMD channel kernels + CRT must
    // equal direct big-integer negacyclic schoolbook over Z_Q, word for
    // word, on every backend, run serially and across a pool.
    rns::RnsBasis basis(62, 16, 3);
    const size_t n = 32;
    SplitMix64 rng(808);
    std::vector<BigUInt> fa(n), fb(n);
    for (size_t i = 0; i < n; ++i) {
        fa[i] = randomBelow(rng, basis.bigModulus());
        fb[i] = randomBelow(rng, basis.bigModulus());
    }
    auto pa = rns::RnsPolynomial::fromCoefficients(basis, fa);
    auto pb = rns::RnsPolynomial::fromCoefficients(basis, fb);

    // Oracle: schoolbook negacyclic product in BigUInt mod Q.
    const BigUInt& q = basis.bigModulus();
    std::vector<BigUInt> expect(n, BigUInt{});
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
            BigUInt term = BigUInt::mulMod(fa[i], fb[j], q);
            size_t k = i + j;
            if (k < n) {
                expect[k] = BigUInt::addMod(expect[k], term, q);
            } else {
                expect[k - n] = BigUInt::subMod(expect[k - n], term, q);
            }
        }
    }
    for (Backend be : test::availableCorrectBackends()) {
        for (size_t threads : {size_t{1}, size_t{3}}) {
            engine::Engine eng(be, threads);
            EXPECT_EQ(eng.polymulNegacyclic(pa, pb).toCoefficients(), expect)
                << backendName(be) << " threads=" << threads;
        }
    }
}

TEST(RnsEngine, MismatchedBasisRejected)
{
    rns::RnsBasis basis_a(60, 12, 2);
    rns::RnsBasis basis_b(58, 12, 2);
    engine::Engine eng(Backend::Scalar, 1);
    rns::RnsPolynomial pa(basis_a, 8), pb(basis_b, 8);
    EXPECT_THROW(eng.add(pa, pb), InvalidArgument);
    rns::RnsPolynomial pc(basis_a, 4);
    EXPECT_THROW(eng.add(pa, pc), InvalidArgument);
}

} // namespace
} // namespace mqx
