/**
 * @file
 * Negacyclic NTT tests: psi structure, roundtrips, products against the
 * schoolbook x^n + 1 reduction, and the merged (psi-in-the-stages)
 * kernels word for word against the Eq.-11 reference transforms (which
 * share no code with the Pease body), across backends, sizes, aliasing
 * and the batch layout.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_layout.h"
#include "ntt/negacyclic.h"
#include "ntt/ntt_backends.h"
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

/** The reference oracles evaluate Eq. 11 in O(n^2): n <= 1024 only. */
constexpr size_t kOracleMaxN = 1024;

/**
 * Oracle forward: x[i] * psi^i, then referenceNtt (Eq. 11, natural
 * order), read out in bit-reversed order.
 */
std::vector<U128>
oracleForward(const ntt::NegacyclicTables& t, const std::vector<U128>& x)
{
    const Modulus& m = t.plan().modulus();
    const size_t n = x.size();
    std::vector<U128> twisted(n);
    U128 p{1};
    for (size_t i = 0; i < n; ++i) {
        twisted[i] = m.mul(x[i], p);
        p = m.mul(p, t.psi());
    }
    const auto nat = ntt::referenceNtt(t.plan(), twisted);
    std::vector<U128> out(n);
    for (size_t k = 0; k < n; ++k)
        out[k] = nat[ntt::bitReverseIndex(k, t.plan().logn())];
    return out;
}

/** Oracle inverse: bit-reversed y back to natural order, referenceIntt,
 *  then y[i] * psi^-i. */
std::vector<U128>
oracleInverse(const ntt::NegacyclicTables& t, const std::vector<U128>& y)
{
    const Modulus& m = t.plan().modulus();
    const size_t n = y.size();
    std::vector<U128> nat(n);
    for (size_t k = 0; k < n; ++k)
        nat[ntt::bitReverseIndex(k, t.plan().logn())] = y[k];
    std::vector<U128> r = ntt::referenceIntt(t.plan(), nat);
    const U128 psi_inv = m.inverse(t.psi());
    U128 p{1};
    for (size_t i = 0; i < n; ++i) {
        r[i] = m.mul(r[i], p);
        p = m.mul(p, psi_inv);
    }
    return r;
}

/**
 * Above kOracleMaxN: Eq. 11 at spot positions. Output k of the merged
 * forward is x evaluated at psi^(1 + 2 brev(k)) (Horner, O(n) each).
 */
void
expectForwardSpotChecks(const ntt::NegacyclicTables& t,
                        const std::vector<U128>& x,
                        const std::vector<U128>& out)
{
    const Modulus& m = t.plan().modulus();
    const size_t n = x.size();
    for (size_t k : {size_t{0}, size_t{1}, n / 3, n / 2 + 1, n - 1}) {
        const U128 z = m.pow(
            t.psi(),
            U128{1 + 2 * static_cast<uint64_t>(
                             ntt::bitReverseIndex(k, t.plan().logn()))});
        U128 acc{0};
        for (size_t i = n; i-- > 0;)
            acc = m.add(m.mul(acc, z), x[i]);
        EXPECT_EQ(out[k], acc) << "spot k=" << k;
    }
}

TEST(NegacyclicMerged, TablesHoldBitReversedPsiPowers)
{
    const size_t n = 16;
    auto t = tablesFor(n);
    const Modulus& m = t->plan().modulus();
    for (size_t k = 0; k < n; ++k) {
        const size_t e = ((k & 1) << 3) | ((k & 2) << 1) | ((k & 4) >> 1) |
                         ((k & 8) >> 3); // 4-bit reversal
        EXPECT_EQ(t->twiddles().at(k), m.pow(t->psi(), U128{e}));
    }
    EXPECT_EQ(t->twiddles().at(1), m.pow(t->psi(), U128{n / 2}));
}

TEST(NegacyclicTables, ShoupCompanionsMatchOracle)
{
    // Every companion is the BigUInt oracle's floor(w * 2^128 / q).
    const std::pair<ntt::NttPrime, size_t> cases[] = {
        {testPrime(), 256}, {ntt::defaultBenchPrime(), 4096}};
    for (const auto& [prime, n] : cases) {
        ntt::NegacyclicTables t(prime, n);
        const mod::DW<uint64_t> q = mod::toDw(prime.q);
        for (size_t k = 0; k < n; ++k) {
            EXPECT_EQ(t.twiddlesShoup().at(k),
                      mod::fromDw(mod::shoupPrecompute(
                          mod::toDw(t.twiddles().at(k)), q)))
                << "k=" << k << " n=" << n;
        }
    }
}

TEST(NegacyclicTables, MirroredTableHoldsTheInverseTwiddles)
{
    // The merged inverse's stage s >= 1, factor b needs psi^-brev(2^s +
    // b) and reads q - entry 2^(s+1) - 1 - b of the forward table; its
    // last stage needs n^-1 and psi^-(n/2) * n^-1. Oracle: powers of
    // psi^-1 and the BigUInt Shoup companions.
    const ntt::NttPrime primes[] = {ntt::defaultBenchPrime(),
                                    ntt::findNttPrime(40, 13)};
    for (const ntt::NttPrime& prime : primes) {
        for (size_t n : {size_t{16}, size_t{256}, size_t{4096}}) {
            SCOPED_TRACE("n=" + std::to_string(n));
            ntt::NegacyclicTables t(prime, n);
            const ntt::NttPlan& plan = t.plan();
            const Modulus& m = plan.modulus();
            const U128 psi_inv = m.inverse(t.psi());
            const ResidueVector& fwd = t.twiddles();
            for (size_t half = 2; half < n; half *= 2) { // half = 2^s
                for (size_t b = 0; b < half; ++b) {
                    const U128 want = m.pow(
                        psi_inv,
                        U128{static_cast<uint64_t>(ntt::bitReverseIndex(
                            half + b, plan.logn()))});
                    ASSERT_EQ(want, prime.q - fwd.at(2 * half - 1 - b))
                        << "2^s=" << half << " b=" << b;
                }
            }
            const mod::DW<uint64_t> q = mod::toDw(prime.q);
            const U128 n_inv = m.inverse(U128{static_cast<uint64_t>(n)});
            EXPECT_EQ(plan.nInv(), n_inv);
            EXPECT_EQ(plan.nInvShoup(), mod::fromDw(mod::shoupPrecompute(
                                            mod::toDw(n_inv), q)));
            const U128 diff =
                m.mul(m.pow(psi_inv, U128{static_cast<uint64_t>(n / 2)}),
                      n_inv);
            EXPECT_EQ(t.lastDiff(), diff);
            EXPECT_EQ(t.lastDiffShoup(), mod::fromDw(mod::shoupPrecompute(
                                             mod::toDw(diff), q)));
            const auto iw = ntt::detail::inverseTwiddles(t);
            EXPECT_TRUE(iw.mirrored && iw.per_level);
            EXPECT_EQ(iw.last_sum, n_inv);
            EXPECT_EQ(iw.last_diff, diff);
        }
    }
}

class NegacyclicMerged : public testing::TestWithParam<size_t>
{
};

TEST_P(NegacyclicMerged, WordIdenticalToReferenceOnEveryBackend)
{
    const size_t n = GetParam();
    auto t = tablesFor(n);
    const auto x = randomResidues(n, testPrime().q, 0x4e00 + n);
    const auto y = randomResidues(n, testPrime().q, 0x4f00 + n);
    const bool full = n <= kOracleMaxN;
    const auto want_fwd = full ? oracleForward(*t, x) : std::vector<U128>{};
    const auto want_inv = full ? oracleInverse(*t, y) : std::vector<U128>{};
    for (Backend be : test::availableCorrectBackends()) {
        SCOPED_TRACE(backendName(be));
        ntt::NegacyclicEngine engine(t, be);
        ResidueVector vx = ResidueVector::fromU128(x), out(n);
        engine.forward(vx.span(), out.span());
        if (full)
            EXPECT_EQ(out.toU128(), want_fwd) << "forward";
        else
            expectForwardSpotChecks(*t, x, out.toU128());
        // in == out: the engine stages the aliased input.
        engine.forward(vx.span(), vx.span());
        EXPECT_TRUE(vx == out) << "forward in place";

        ResidueVector vy = ResidueVector::fromU128(y);
        engine.inverse(vy.span(), out.span());
        if (full) {
            EXPECT_EQ(out.toU128(), want_inv) << "inverse";
        } else {
            // The inverse of y is the x whose spot-checked forward is y.
            ResidueVector back(n);
            engine.forward(out.span(), back.span());
            EXPECT_EQ(back.toU128(), y) << "inverse";
        }
        engine.inverse(vy.span(), vy.span());
        EXPECT_TRUE(vy == out) << "inverse in place";
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
    const ntt::NttPlan& plan = t->plan();
    const auto fw = ntt::detail::forwardTwiddles(*t);
    const auto iw = ntt::detail::inverseTwiddles(*t);
    const auto x = randomResidues(n, testPrime().q, 0x5e00 + n);
    // The Scalar backend, checked against Eq. 11 by the test above.
    ResidueVector in = ResidueVector::fromU128(x), out(n), scratch(n);
    ResidueVector want_fwd(n), want_inv(n);
    ntt::negacyclicForward(*t, Backend::Scalar, in.span(), want_fwd.span(),
                           scratch.span());
    ntt::negacyclicInverse(*t, Backend::Scalar, in.span(), want_inv.span(),
                           scratch.span());
    for (auto [name, fwd, inv] :
         {std::tuple{"emulated", &nb::forwardAvx512, &nb::inverseAvx512},
          std::tuple{"ifma", &nb::forwardAvx512Ifma,
                     &nb::inverseAvx512Ifma}}) {
        for (StageFusion fusion : {StageFusion::Radix2, StageFusion::Radix4}) {
            SCOPED_TRACE(std::string(name) +
                         (fusion == StageFusion::Radix4 ? " radix4"
                                                        : " radix2"));
            const ntt::detail::PeaseShape shape{Reduction::ShoupLazy,
                                                fusion};
            fwd(plan, fw, in.span(), out.span(), scratch.span(), shape);
            EXPECT_TRUE(out == want_fwd) << "forward";
            inv(plan, iw, in.span(), out.span(), scratch.span(), shape);
            EXPECT_TRUE(out == want_inv) << "inverse";
        }
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
        nb::forwardBatchAvx512(plan, fw, il, packed.span(), fe.span(),
                               fse.span());
        nb::forwardBatchAvx512Ifma(plan, fw, il, packed.span(), fi.span(),
                                   fsi.span());
        EXPECT_TRUE(fe == fi) << "batch forward";
        EXPECT_TRUE(fse == fsi) << "batch forward scratch";
        ResidueVector ie(words), ise(words), ii(words), isi(words);
        nb::inverseBatchAvx512(plan, iw, il, fe.span(), ie.span(),
                               ise.span());
        nb::inverseBatchAvx512Ifma(plan, iw, il, fe.span(), ii.span(),
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
 * must match the per-channel transform (checked against Eq. 11 above),
 * and padding lanes stay zero.
 */
TEST(NegacyclicMerged, BatchLanesMatchPerChannelTransform)
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
                    ntt::NegacyclicEngine ref(t, Backend::Scalar);
                    want_fwd.push_back(ref.forward(lanes.back()));
                    want_inv.push_back(ref.inverse(lanes.back()));
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
