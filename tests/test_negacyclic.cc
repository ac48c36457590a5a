/**
 * @file
 * Negacyclic NTT tests: psi structure, roundtrips, products against the
 * schoolbook x^n + 1 reduction, and the merged (psi-in-the-stages)
 * kernels word for word against an oracle built from the public cyclic
 * pieces, across backends, sizes, aliasing and the batch layout.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_layout.h"
#include "ntt/negacyclic.h"
#include "ntt/negacyclic_backends.h"
#include "ntt/reference_ntt.h"
#include "test_util.h"

namespace mqx {
namespace {

const ntt::NttPrime&
testPrime()
{
    return ntt::smallTestPrime();
}

TEST(Negacyclic, PsiIsSquareRootOfOmegaWithOrder2n)
{
    const size_t n = 64;
    ntt::NegacyclicEngine engine(testPrime(), n, Backend::Scalar);
    const Modulus& m = engine.plan().modulus();
    U128 psi = engine.psi();
    EXPECT_EQ(m.mul(psi, psi), engine.plan().omega());
    EXPECT_EQ(m.pow(psi, U128{2 * n}), U128{1});
    EXPECT_NE(m.pow(psi, U128{n}), U128{1});
    // psi^n must be -1 (the negacyclic sign).
    EXPECT_EQ(m.pow(psi, U128{n}), testPrime().q - U128{1});
}

TEST(Negacyclic, ReferenceReductionMatchesDefinition)
{
    // (x + 1)^2 mod (x^2 + 1, q) = x^2 + 2x + 1 = 2x (since x^2 = -1).
    Modulus m(testPrime().q);
    std::vector<U128> f = {U128{1}, U128{1}};
    auto r = ntt::negacyclicConvolution(m, f, f);
    EXPECT_EQ(r[0], U128{0});
    EXPECT_EQ(r[1], U128{2});
}

class NegacyclicBackend : public testing::TestWithParam<Backend>
{
};

TEST_P(NegacyclicBackend, RoundTrip)
{
    Backend be = GetParam();
    for (size_t n : {4u, 32u, 256u}) {
        ntt::NegacyclicEngine engine(testPrime(), n, be);
        auto input = randomResidues(n, testPrime().q, 13 + n);
        EXPECT_EQ(engine.inverse(engine.forward(input)), input)
            << "n=" << n << " backend=" << backendName(be);
    }
}

TEST_P(NegacyclicBackend, ProductMatchesSchoolbook)
{
    Backend be = GetParam();
    for (size_t n : {4u, 64u, 128u}) {
        ntt::NegacyclicEngine engine(testPrime(), n, be);
        Modulus m(testPrime().q);
        auto f = randomResidues(n, testPrime().q, 100 + n);
        auto g = randomResidues(n, testPrime().q, 200 + n);
        EXPECT_EQ(engine.polymulNegacyclic(f, g),
                  ntt::negacyclicConvolution(m, f, g))
            << "n=" << n << " backend=" << backendName(be);
    }
}

TEST_P(NegacyclicBackend, WraparoundSignIsNegative)
{
    // x^(n-1) * x = x^n = -1: the clearest negacyclic signature.
    Backend be = GetParam();
    const size_t n = 16;
    ntt::NegacyclicEngine engine(testPrime(), n, be);
    std::vector<U128> xn1(n, U128{0}), x(n, U128{0});
    xn1[n - 1] = U128{1};
    x[1] = U128{1};
    auto prod = engine.polymulNegacyclic(xn1, x);
    EXPECT_EQ(prod[0], testPrime().q - U128{1}); // -1 mod q
    for (size_t i = 1; i < n; ++i)
        EXPECT_TRUE(prod[i].isZero());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, NegacyclicBackend,
                         testing::ValuesIn(test::availableCorrectBackends()),
                         test::backendParamName);

// ---------------------------------------------------------------------------
// The merged kernels against the twisted cyclic pipeline.
// ---------------------------------------------------------------------------

std::shared_ptr<const ntt::NegacyclicTables>
tablesFor(size_t n)
{
    return std::make_shared<const ntt::NegacyclicTables>(testPrime(), n);
}

/** Oracle forward: x[i] * psi^i by Modulus::mul, then ntt::forward. */
std::vector<U128>
oracleForward(const ntt::NegacyclicTables& t, const std::vector<U128>& x)
{
    const Modulus& m = t.plan().modulus();
    const size_t n = x.size();
    ResidueVector in(n), out(n), scratch(n);
    U128 p{1};
    for (size_t i = 0; i < n; ++i) {
        in.set(i, m.mul(x[i], p));
        p = m.mul(p, t.psi());
    }
    ntt::forward(t.plan(), Backend::Scalar, in.span(), out.span(),
                 scratch.span());
    return out.toU128();
}

/** Oracle inverse: ntt::inverse, then y[i] * psi^-i by Modulus::mul. */
std::vector<U128>
oracleInverse(const ntt::NegacyclicTables& t, const std::vector<U128>& y)
{
    const Modulus& m = t.plan().modulus();
    const size_t n = y.size();
    ResidueVector in = ResidueVector::fromU128(y), out(n), scratch(n);
    ntt::inverse(t.plan(), Backend::Scalar, in.span(), out.span(),
                 scratch.span());
    std::vector<U128> r = out.toU128();
    const U128 psi_inv = m.inverse(t.psi());
    U128 p{1};
    for (size_t i = 0; i < n; ++i) {
        r[i] = m.mul(r[i], p);
        p = m.mul(p, psi_inv);
    }
    return r;
}

TEST(NegacyclicMerged, TablesHoldBitReversedPsiPowers)
{
    const size_t n = 16;
    auto t = tablesFor(n);
    const Modulus& m = t->plan().modulus();
    const U128 psi_inv = m.inverse(t->psi());
    for (size_t k = 2; k < n; ++k) {
        const size_t e = ((k & 1) << 3) | ((k & 2) << 1) | ((k & 4) >> 1) |
                         ((k & 8) >> 3); // 4-bit reversal
        EXPECT_EQ(t->forwardTwiddles().at(k), m.pow(t->psi(), U128{e}));
        EXPECT_EQ(t->inverseTwiddles().at(k), m.pow(psi_inv, U128{e}));
    }
    // The last inverse stage's multipliers carry n^-1.
    const U128 n_inv = t->plan().nInv();
    EXPECT_EQ(t->forwardTwiddles().at(1), m.pow(t->psi(), U128{n / 2}));
    EXPECT_EQ(t->inverseTwiddles().at(0), n_inv);
    EXPECT_EQ(t->inverseTwiddles().at(1),
              m.mul(m.pow(psi_inv, U128{n / 2}), n_inv));
}

TEST(NegacyclicTables, ShoupCompanionsMatchOracle)
{
    // Every companion, entries 0 and 1 (which hold n^-1) included, is
    // the BigUInt oracle's floor(w * 2^128 / q).
    const std::pair<ntt::NttPrime, size_t> cases[] = {
        {testPrime(), 256}, {ntt::defaultBenchPrime(), 4096}};
    for (const auto& [prime, n] : cases) {
        ntt::NegacyclicTables t(prime, n);
        const mod::DW<uint64_t> q = mod::toDw(prime.q);
        for (size_t k = 0; k < n; ++k) {
            EXPECT_EQ(t.forwardTwiddlesShoup().at(k),
                      mod::fromDw(mod::shoupPrecompute(
                          mod::toDw(t.forwardTwiddles().at(k)), q)))
                << "forward k=" << k << " n=" << n;
            EXPECT_EQ(t.inverseTwiddlesShoup().at(k),
                      mod::fromDw(mod::shoupPrecompute(
                          mod::toDw(t.inverseTwiddles().at(k)), q)))
                << "inverse k=" << k << " n=" << n;
        }
    }
}

class NegacyclicMerged : public testing::TestWithParam<size_t>
{
};

TEST_P(NegacyclicMerged, WordIdenticalToTwistedCyclicOnEveryBackend)
{
    const size_t n = GetParam();
    auto t = tablesFor(n);
    const auto x = randomResidues(n, testPrime().q, 0x4e00 + n);
    const auto y = randomResidues(n, testPrime().q, 0x4f00 + n);
    const auto want_fwd = oracleForward(*t, x);
    const auto want_inv = oracleInverse(*t, y);
    for (Backend be : test::availableCorrectBackends()) {
        SCOPED_TRACE(backendName(be));
        ntt::NegacyclicEngine engine(t, be);
        ResidueVector vx = ResidueVector::fromU128(x), out(n);
        engine.forward(vx.span(), out.span());
        EXPECT_EQ(out.toU128(), want_fwd) << "forward";
        // in == out: the engine stages the aliased input.
        engine.forward(vx.span(), vx.span());
        EXPECT_EQ(vx.toU128(), want_fwd) << "forward in place";

        ResidueVector vy = ResidueVector::fromU128(y);
        engine.inverse(vy.span(), out.span());
        EXPECT_EQ(out.toU128(), want_inv) << "inverse";
        engine.inverse(vy.span(), vy.span());
        EXPECT_EQ(vy.toU128(), want_inv) << "inverse in place";
    }
}

TEST_P(NegacyclicMerged, Avx512KernelsWordIdentical)
{
#if MQX_BUILD_AVX512_IFMA
    if (!avx512Ifma())
        GTEST_SKIP() << "host lacks AVX-512 IFMA: only one AVX-512 kernel";
    namespace nb = ntt::backends;
    const size_t n = GetParam();
    auto t = tablesFor(n);
    const auto x = randomResidues(n, testPrime().q, 0x5e00 + n);
    const auto want_fwd = oracleForward(*t, x);
    const auto want_inv = oracleInverse(*t, x);
    ResidueVector in = ResidueVector::fromU128(x), out(n), scratch(n);
    for (auto [name, fwd, inv] :
         {std::tuple{"emulated", &nb::negacyclicForwardAvx512,
                     &nb::negacyclicInverseAvx512},
          std::tuple{"ifma", &nb::negacyclicForwardAvx512Ifma,
                     &nb::negacyclicInverseAvx512Ifma}}) {
        SCOPED_TRACE(name);
        fwd(*t, in.span(), out.span(), scratch.span());
        EXPECT_EQ(out.toU128(), want_fwd) << "forward";
        inv(*t, in.span(), out.span(), scratch.span());
        EXPECT_EQ(out.toU128(), want_inv) << "inverse";
    }

    // The batch entries at IL = 8, full and padded tiles: both builds
    // must agree word for word, scratch buffers included, and the
    // inverse must restore the packed input.
    if (n < 16 || n > (size_t{1} << 15))
        return;
    const size_t il = 8;
    for (size_t k : {il, il - 1}) {
        SCOPED_TRACE("k=" + std::to_string(k));
        const BatchLayout layout(n, k, il);
        std::vector<ResidueVector> lanes;
        std::vector<DConstSpan> spans;
        for (size_t c = 0; c < k; ++c)
            lanes.push_back(ResidueVector::fromU128(
                randomResidues(n, testPrime().q, 0x5f00 + 7 * c + n)));
        for (const auto& v : lanes)
            spans.push_back(v.span());
        const size_t words = layout.totalWords();
        ResidueVector packed(words);
        batch::packLanes(layout, spans.data(), k, packed.span());
        ResidueVector fe(words), fse(words), fi(words), fsi(words);
        nb::negacyclicForwardBatchAvx512(*t, il, packed.span(), fe.span(),
                                         fse.span());
        nb::negacyclicForwardBatchAvx512Ifma(*t, il, packed.span(),
                                             fi.span(), fsi.span());
        EXPECT_TRUE(fe == fi) << "batch forward";
        EXPECT_TRUE(fse == fsi) << "batch forward scratch";
        ResidueVector ie(words), ise(words), ii(words), isi(words);
        nb::negacyclicInverseBatchAvx512(*t, il, fe.span(), ie.span(),
                                         ise.span());
        nb::negacyclicInverseBatchAvx512Ifma(*t, il, fe.span(), ii.span(),
                                             isi.span());
        EXPECT_TRUE(ie == ii) << "batch inverse";
        EXPECT_TRUE(ise == isi) << "batch inverse scratch";
        EXPECT_TRUE(ii == packed) << "batch round trip";
    }
#else
    GTEST_SKIP() << "IFMA build of the AVX-512 tier not compiled in";
#endif
}

INSTANTIATE_TEST_SUITE_P(Sizes, NegacyclicMerged,
                         testing::Values(size_t{2}, size_t{4}, size_t{8},
                                         size_t{16}, size_t{4096},
                                         size_t{1} << 15, size_t{1} << 17));

/**
 * The batch entries at IL = 4 and 8, full and padded tiles: every lane
 * must match the per-channel oracle, and padding lanes stay zero.
 */
TEST(NegacyclicMerged, BatchLanesMatchPerChannelOracle)
{
    for (size_t n : {size_t{16}, size_t{4096}}) {
        auto t = tablesFor(n);
        for (size_t il : {size_t{4}, size_t{8}}) {
            for (size_t k : {il, il - 1}) {
                SCOPED_TRACE("n=" + std::to_string(n) + " il=" +
                             std::to_string(il) + " k=" + std::to_string(k));
                const BatchLayout layout(n, k, il);
                std::vector<std::vector<U128>> lanes, want_fwd, want_inv;
                std::vector<ResidueVector> vlanes;
                std::vector<DConstSpan> spans;
                for (size_t c = 0; c < k; ++c) {
                    lanes.push_back(
                        randomResidues(n, testPrime().q, 0x6a00 + 7 * c + n));
                    want_fwd.push_back(oracleForward(*t, lanes.back()));
                    want_inv.push_back(oracleInverse(*t, lanes.back()));
                    vlanes.push_back(ResidueVector::fromU128(lanes.back()));
                }
                for (const auto& v : vlanes)
                    spans.push_back(v.span());
                ResidueVector packed(layout.totalWords()),
                    out(layout.totalWords()), scratch(layout.totalWords());
                batch::packLanes(layout, spans.data(), k, packed.span());
                for (Backend be : test::availableCorrectBackends()) {
                    SCOPED_TRACE(backendName(be));
                    for (bool forward : {true, false}) {
                        if (forward)
                            ntt::negacyclicForwardBatch(
                                *t, be, il, packed.span(), out.span(),
                                scratch.span());
                        else
                            ntt::negacyclicInverseBatch(
                                *t, be, il, packed.span(), out.span(),
                                scratch.span());
                        const auto& want = forward ? want_fwd : want_inv;
                        for (size_t c = 0; c < il; ++c) {
                            for (size_t e = 0; e < n; ++e) {
                                const U128 expect =
                                    c < k ? want[c][e] : U128{0};
                                ASSERT_EQ(out.at(layout.index(e, c)), expect)
                                    << (forward ? "forward" : "inverse")
                                    << " lane " << c << " e " << e;
                            }
                        }
                    }
                }
            }
        }
    }
}

TEST(Negacyclic, RejectsInsufficientTwoAdicity)
{
    // A prime with 2-adicity v supports negacyclic products only up to
    // n = 2^(v-1).
    ntt::NttPrime p = ntt::findNttPrime(30, 3);
    EXPECT_NO_THROW(ntt::NegacyclicEngine(p, 4, Backend::Scalar));
    EXPECT_THROW(ntt::NegacyclicEngine(p, 8, Backend::Scalar),
                 InvalidArgument);
}

} // namespace
} // namespace mqx
