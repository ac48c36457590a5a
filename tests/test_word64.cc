/**
 * @file
 * Single-word (64-bit) kernel tests: Barrett and Shoup mulmod against
 * the __int128 oracle, and per backend the NTT against the double-word
 * Scalar NTT on the same q (forward, inverse, round trip) plus the
 * convolution theorem.
 */
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "bigint/biguint.h"
#include "core/residue_span.h"
#include "ntt/ntt.h"
#include "test_util.h"
#include "word64/word64.h"

namespace mqx {
namespace {

uint64_t
testPrime64()
{
    static const uint64_t q = w64::findNttPrime64(58, 18);
    return q;
}

/** The widest modulus the lazy [0, 4q) butterfly ranges allow. */
uint64_t
testPrime62()
{
    static const uint64_t q = w64::findNttPrime64(62, 18);
    return q;
}

TEST(Word64Modulus, Validation)
{
    EXPECT_THROW(w64::Modulus64(0), InvalidArgument);
    EXPECT_THROW(w64::Modulus64(1), InvalidArgument);
    EXPECT_THROW(w64::Modulus64(1ull << 62), InvalidArgument);
    EXPECT_NO_THROW(w64::Modulus64((1ull << 62) - 57));
    EXPECT_NO_THROW(w64::Modulus64(3));
}

class Word64Mod : public testing::TestWithParam<int>
{
};

TEST_P(Word64Mod, OpsMatchInt128Oracle)
{
    int bits = GetParam();
    SplitMix64 rng(static_cast<uint64_t>(bits) * 1337);
    for (int trial = 0; trial < 20; ++trial) {
        uint64_t q = (rng.next() | (1ull << (bits - 1)) | 1) &
                     ((bits == 64) ? ~0ull : ((1ull << bits) - 1));
        if (q < 3)
            continue;
        w64::Modulus64 m(q);
        for (int i = 0; i < 500; ++i) {
            uint64_t a = rng.next() % q, b = rng.next() % q;
            EXPECT_EQ(m.addMod(a, b), (a + b) % q);
            EXPECT_EQ(m.subMod(a, b),
                      a >= b ? a - b : a - b + q);
            unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
            EXPECT_EQ(m.mulMod(a, b), static_cast<uint64_t>(p % q))
                << "a=" << a << " b=" << b << " q=" << q;
        }
        // Edges.
        for (uint64_t a : {uint64_t{0}, uint64_t{1}, q - 1}) {
            for (uint64_t b : {uint64_t{0}, uint64_t{1}, q - 1}) {
                unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
                EXPECT_EQ(m.mulMod(a, b), static_cast<uint64_t>(p % q));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Bits, Word64Mod,
                         testing::Values(2, 8, 20, 31, 32, 33, 50, 58, 61,
                                         62));

TEST(Word64Modulus, PowAndInverse)
{
    w64::Modulus64 m(testPrime64());
    SplitMix64 rng(9);
    for (int i = 0; i < 100; ++i) {
        uint64_t a = rng.next() % m.value();
        if (a == 0)
            continue;
        EXPECT_EQ(m.mulMod(a, m.inverse(a)), 1u);
        EXPECT_EQ(m.powMod(a, m.value() - 1), 1u); // Fermat
    }
}

class Word64Ntt : public testing::TestWithParam<Backend>
{
};

TEST(Word64Modulus, ShoupMulMatchesOracle)
{
    w64::Modulus64 m(testPrime64());
    const uint64_t q = m.value();
    const uint64_t edges[] = {0, 1, 2, q / 2, q / 2 + 1, q - 2, q - 1};
    SplitMix64 rng(0x64064);
    for (int t = 0; t < 500; ++t) {
        uint64_t w = t < static_cast<int>(std::size(edges)) ? edges[t]
                                                            : rng.next() % q;
        uint64_t a = rng.next() % (4 * q); // full lazy operand range
        uint64_t wq = m.shoupCompanion(w);
        // The word-arithmetic companion is exactly floor(w * 2^64 / q).
        EXPECT_EQ(U128{wq}, ((BigUInt{w} << 64) / BigUInt{q}).toU128())
            << "w=" << w;
        uint64_t r = m.mulModShoup(a, w, wq);
        ASSERT_LT(r, 2 * q) << "lazy range escaped";
#if MQX_HAVE_INT128
        unsigned __int128 expect =
            static_cast<unsigned __int128>(a) * w % q;
        EXPECT_EQ(r % q, static_cast<uint64_t>(expect));
#endif
    }
    EXPECT_THROW(m.shoupCompanion(q), InvalidArgument);
    EXPECT_THROW(w64::Modulus64(1ull << 40).shoupCompanion(1),
                 InvalidArgument); // even q has no inverse mod 2^64
}

/** Low words of a double-word NTT's output (all below q < 2^62). */
std::vector<uint64_t>
lowWords(const ResidueVector& v)
{
    std::vector<uint64_t> lo;
    for (const U128& x : v.toU128())
        lo.push_back(x.lo);
    return lo;
}

TEST_P(Word64Ntt, MatchesDoubleWordScalarOracle)
{
    // Both plans derive omega through the same deterministic root
    // search, so every backend's forward64/inverse64 must give the
    // double-word Scalar ntt::forward/inverse words on the same q. The
    // n mix odd and even logn (radix-4 passes with and without the
    // leading radix-2 pass); 62 bits is the widest q whose lazy
    // [0, 4q) differences fit a word.
    Backend be = GetParam();
    if (!backendAvailable(be))
        GTEST_SKIP() << "backend unavailable";
    for (uint64_t q : {testPrime64(), testPrime62()}) {
        for (size_t n : {2u, 4u, 8u, 16u, 64u, 128u, 1024u, 2048u, 4096u,
                         32768u}) {
            w64::Ntt64Plan plan64(q, n);
            ntt::NttPlan plan128(Modulus(U128{q}), n);
            ASSERT_EQ(plan64.omega(), plan128.omega().lo);
            SplitMix64 rng(q ^ n);
            std::vector<uint64_t> x(n), y(n);
            std::vector<U128> x128(n), y128(n);
            for (size_t i = 0; i < n; ++i) {
                x[i] = rng.next() % q;
                y[i] = rng.next() % q;
                x128[i] = U128{x[i]};
                y128[i] = U128{y[i]};
            }
            const ResidueVector xv = ResidueVector::fromU128(x128);
            const ResidueVector yv = ResidueVector::fromU128(y128);
            ResidueVector fwd(n), inv(n), scratch(n);
            ntt::forward(plan128, Backend::Scalar, xv.span(), fwd.span(),
                         scratch.span());
            ntt::inverse(plan128, Backend::Scalar, yv.span(), inv.span(),
                         scratch.span());

            std::vector<uint64_t> got_fwd(n), got_inv(n), back(n), s64(n);
            w64::forward64(plan64, be, x.data(), got_fwd.data(), s64.data());
            w64::inverse64(plan64, be, y.data(), got_inv.data(), s64.data());
            w64::inverse64(plan64, be, got_fwd.data(), back.data(),
                           s64.data());
            const auto where = [&] {
                return "q=" + std::to_string(q) + " n=" + std::to_string(n) +
                       " " + backendName(be);
            };
            EXPECT_EQ(got_fwd, lowWords(fwd)) << "forward " << where();
            EXPECT_EQ(got_inv, lowWords(inv)) << "inverse " << where();
            EXPECT_EQ(back, x) << "round trip " << where();
        }
    }
}

TEST_P(Word64Ntt, ConvolutionTheorem)
{
    Backend be = GetParam();
    if (!backendAvailable(be))
        GTEST_SKIP() << "backend unavailable";
    const size_t n = 32;
    w64::Ntt64Plan plan(testPrime64(), n);
    const w64::Modulus64& m = plan.modulus();
    SplitMix64 rng(77);
    std::vector<uint64_t> f(n), g(n);
    for (size_t i = 0; i < n; ++i) {
        f[i] = rng.next() % m.value();
        g[i] = rng.next() % m.value();
    }
    std::vector<uint64_t> tf(n), tg(n), scratch(n), prod(n), conv(n);
    w64::forward64(plan, be, f.data(), tf.data(), scratch.data());
    w64::forward64(plan, be, g.data(), tg.data(), scratch.data());
    for (size_t i = 0; i < n; ++i)
        prod[i] = m.mulMod(tf[i], tg[i]);
    w64::inverse64(plan, be, prod.data(), conv.data(), scratch.data());

    // Schoolbook cyclic convolution oracle.
    std::vector<uint64_t> expect(n, 0);
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
            expect[(i + j) % n] =
                m.addMod(expect[(i + j) % n], m.mulMod(f[i], g[j]));
        }
    }
    EXPECT_EQ(conv, expect) << backendName(be);
}

INSTANTIATE_TEST_SUITE_P(Backends, Word64Ntt,
                         testing::Values(Backend::Scalar, Backend::Portable,
                                         Backend::Avx512),
                         test::backendParamName);

TEST(Word64Ntt, UnsupportedBackendsThrow)
{
    w64::Ntt64Plan plan(testPrime64(), 8);
    std::vector<uint64_t> a(8), b(8), c(8);
    EXPECT_THROW(
        w64::forward64(plan, Backend::Avx2, a.data(), b.data(), c.data()),
        BackendUnavailable);
    EXPECT_THROW(
        w64::forward64(plan, Backend::Scalar, a.data(), a.data(), c.data()),
        InvalidArgument);
}

} // namespace
} // namespace mqx
