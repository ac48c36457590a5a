/**
 * @file
 * NTT correctness tests: plan validation, reference agreement,
 * roundtrips, linearity, the convolution theorem, cross-backend
 * agreement, and the MQX feature variants in emulation mode.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <latch>
#include <thread>
#include <utility>

#include "core/cpu_features.h"
#include "ntt/negacyclic.h"
#include "ntt/ntt.h"
#include "ntt/ntt_backends.h"
#include "ntt/pease_impl.h"
#include "ntt/reference_ntt.h"
#include "test_util.h"

namespace mqx {
namespace {

using test::availableCorrectBackends;

const ntt::NttPrime&
testPrime()
{
    return ntt::smallTestPrime();
}

std::vector<U128>
runForward(const ntt::NttPlan& plan, Backend be, const std::vector<U128>& in,
           Reduction red = Reduction::ShoupLazy,
           StageFusion fusion = StageFusion::Radix4)
{
    ResidueVector vin = ResidueVector::fromU128(in);
    ResidueVector out(plan.n()), scratch(plan.n());
    ntt::forward(plan, be, vin.span(), out.span(), scratch.span(), red, fusion);
    return out.toU128();
}

std::vector<U128>
runInverse(const ntt::NttPlan& plan, Backend be, const std::vector<U128>& in,
           Reduction red = Reduction::ShoupLazy,
           StageFusion fusion = StageFusion::Radix4)
{
    ResidueVector vin = ResidueVector::fromU128(in);
    ResidueVector out(plan.n()), scratch(plan.n());
    ntt::inverse(plan, be, vin.span(), out.span(), scratch.span(), red, fusion);
    return out.toU128();
}

std::vector<U128>
bitReverse(const std::vector<U128>& v)
{
    ResidueVector rv = ResidueVector::fromU128(v);
    DSpan s = rv.span();
    ntt::bitReversePermute(s);
    return rv.toU128();
}

TEST(NttPlan, Validation)
{
    Modulus m(testPrime().q);
    EXPECT_THROW(ntt::NttPlan(m, 0), InvalidArgument);
    EXPECT_THROW(ntt::NttPlan(m, 1), InvalidArgument);
    EXPECT_THROW(ntt::NttPlan(m, 3), InvalidArgument);  // not a power of 2
    EXPECT_THROW(ntt::NttPlan(m, 48), InvalidArgument); // not a power of 2
    // Composite modulus must be rejected.
    EXPECT_THROW(ntt::NttPlan(Modulus(U128{15}), 4), InvalidArgument);
    // n exceeding the 2-adicity must be rejected (order does not divide
    // q - 1).
    size_t too_big = size_t{1} << (testPrime().two_adicity + 1);
    EXPECT_THROW(ntt::NttPlan(m, too_big), InvalidArgument);
    EXPECT_NO_THROW(ntt::NttPlan(m, 2));
    // The legacy L2-budget overload accepts only 0.
    EXPECT_NO_THROW(ntt::NttPlan(testPrime(), 16, size_t{0}));
    EXPECT_THROW(ntt::NttPlan(testPrime(), 16, size_t{1} << 20),
                 InvalidArgument);
}

TEST(NttPlan, TwiddleStructure)
{
    ntt::NttPlan plan(testPrime(), 16);
    const Modulus& m = plan.modulus();
    // omega has order exactly n.
    EXPECT_EQ(m.pow(plan.omega(), U128{16}), U128{1});
    EXPECT_NE(m.pow(plan.omega(), U128{8}), U128{1});
    EXPECT_EQ(m.mul(plan.omega(), plan.omegaInv()), U128{1});
    EXPECT_EQ(m.mul(plan.nInv(), U128{16}), U128{1});
    // Swept-bytes model: 32n bytes per pass; radix-4 halves the passes.
    EXPECT_EQ(plan.bytesSweptPerTransform(StageFusion::Radix2), 32u * 16 * 4);
    EXPECT_EQ(plan.bytesSweptPerTransform(StageFusion::Radix4), 32u * 16 * 2);
}

TEST(NttPlan, BitReversedTwiddleTable)
{
    // One n/2-entry table per direction: T[k] = omega^brev(k) (and
    // omega^-brev(k)), every Shoup companion exact, and stage s of the
    // kernel body reads T[j mod 2^s], which is the zeta of the factor
    // tree of x^n - 1: omega^(brev_s(j mod 2^s) * n/2^(s+1)).
    const std::pair<ntt::NttPrime, size_t> cases[] = {
        {testPrime(), 2},   {testPrime(), 4},
        {testPrime(), 32},  {ntt::defaultBenchPrime(), 256},
        {ntt::defaultBenchPrime(), 4096}};
    for (const auto& [prime, n] : cases) {
        SCOPED_TRACE("n=" + std::to_string(n));
        ntt::NttPlan plan(prime, n);
        const Modulus& m = plan.modulus();
        const mod::DW<uint64_t> q = mod::toDw(m.value());
        const int bits = plan.logn() - 1;
        ASSERT_EQ(plan.forwardTwiddles().size(), plan.half());
        for (size_t k = 0; k < plan.half(); ++k) {
            const U128 e{static_cast<uint64_t>(ntt::bitReverseIndex(k, bits))};
            EXPECT_EQ(plan.forwardTwiddles().at(k), m.pow(plan.omega(), e));
            EXPECT_EQ(plan.inverseTwiddles().at(k), m.pow(plan.omegaInv(), e));
            EXPECT_EQ(plan.forwardTwiddlesShoup().at(k),
                      mod::fromDw(mod::shoupPrecompute(
                          mod::toDw(plan.forwardTwiddles().at(k)), q)))
                << "k=" << k;
            EXPECT_EQ(plan.inverseTwiddlesShoup().at(k),
                      mod::fromDw(mod::shoupPrecompute(
                          mod::toDw(plan.inverseTwiddles().at(k)), q)))
                << "k=" << k;
        }
        EXPECT_EQ(plan.nInvShoup(), mod::fromDw(mod::shoupPrecompute(
                                        mod::toDw(plan.nInv()), q)));
        const auto tw = ntt::detail::forwardTwiddles(plan);
        for (int s = 0; s < plan.logn(); ++s) {
            for (size_t j = 0; j < plan.half(); ++j) {
                const size_t b = j & ((size_t{1} << s) - 1);
                const size_t e = ntt::detail::twiddleIndex(tw, s, j);
                ASSERT_EQ(e, b);
                const U128 zeta = m.pow(
                    plan.omega(),
                    U128{static_cast<uint64_t>(ntt::bitReverseIndex(b, s) *
                                               (n >> (s + 1)))});
                EXPECT_EQ(plan.forwardTwiddles().at(e), zeta)
                    << "s=" << s << " j=" << j;
            }
        }
    }
    // The table bytes equal the old power tables' at every n: four
    // split-layout tables of n/2 entries.
    const ntt::NttPrime wide = ntt::findNttPrime(124, 17);
    for (size_t n = 2; n <= (size_t{1} << 16); n <<= 1)
        EXPECT_EQ(ntt::NttPlan(wide, n).twiddleBytes(), 8 * (n / 2) * 8)
            << "n=" << n;
}

TEST(NttPlan, CompactTablesShrinkTwiddleBytes4xAt4096)
{
    // Acceptance: even counting the Shoup companions, the compact
    // shared power tables cut twiddle storage by >= 4x at n = 4096
    // relative to the stretched per-stage layout (exactly logn/2 = 6x).
    ntt::NttPlan plan(testPrime(), 4096);
    EXPECT_GE(plan.twiddleBytesStretched(), 4 * plan.twiddleBytes());
    EXPECT_EQ(plan.twiddleBytesStretched() / plan.twiddleBytes(),
              static_cast<size_t>(plan.logn()) / 2);
}

TEST(NttPlan, CyclicTablesBuildOnFirstReadAndCopiesShareThem)
{
    ntt::NttPlan plan(testPrime(), 64);
    const ntt::NttPlan copy = plan; // as ntt::Engine copies its plan
    EXPECT_FALSE(plan.twiddlesBuilt());
    EXPECT_EQ(copy.forwardTwiddles().size(), copy.half());
    EXPECT_TRUE(plan.twiddlesBuilt());
    EXPECT_EQ(&plan.forwardTwiddles(), &copy.forwardTwiddles());
}

TEST(NttPlan, LazyTablesRaceFreeUnderConcurrentFirstUse)
{
    // Eight threads run the cyclic forward and inverse at once on one
    // fresh plan, whose first reads race to build its tables; each
    // output must equal a serial run on another plan. Then the same on
    // the plan a fresh NegacyclicTables owns.
    const size_t n = 256;
    const auto x = randomResidues(n, testPrime().q, 0x1a2b);
    const Backend be = bestBackend();
    const ntt::NttPlan ref_plan(testPrime(), n);
    const ResidueVector want_fwd = ResidueVector::fromU128(
        runForward(ref_plan, be, x, Reduction::ShoupLazy, StageFusion::Auto));
    const ResidueVector want_inv = ResidueVector::fromU128(
        runInverse(ref_plan, be, x, Reduction::ShoupLazy, StageFusion::Auto));
    auto race = [&](const ntt::NttPlan& plan) {
        ASSERT_FALSE(plan.twiddlesBuilt());
        constexpr int kThreads = 8;
        std::latch start(kThreads);
        std::atomic<int> mismatches{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                const ResidueVector in = ResidueVector::fromU128(x);
                ResidueVector out(n), scratch(n);
                start.arrive_and_wait();
                // Half the threads read the inverse tables first.
                for (int k = 0; k < 2; ++k) {
                    if ((k + t) % 2 == 0) {
                        ntt::forward(plan, be, in.span(), out.span(),
                                     scratch.span());
                        if (!(out == want_fwd))
                            mismatches.fetch_add(1, std::memory_order_relaxed);
                    } else {
                        ntt::inverse(plan, be, in.span(), out.span(),
                                     scratch.span());
                        if (!(out == want_inv))
                            mismatches.fetch_add(1, std::memory_order_relaxed);
                    }
                }
            });
        }
        for (auto& th : threads)
            th.join();
        EXPECT_EQ(mismatches.load(std::memory_order_relaxed), 0);
        EXPECT_TRUE(plan.twiddlesBuilt());
    };
    race(ntt::NttPlan(testPrime(), n));
    const ntt::NegacyclicTables tables(testPrime(), n);
    race(tables.plan());
}

TEST(NttReference, MatchesEquation11ByHand)
{
    // n = 4 over q = 5 with omega = 2 (the classic toy case, Sec. 2.3).
    Modulus m(U128{5});
    ntt::NttPlan plan(m, 4);
    // Our plan picks some valid 4th root; evaluate Eq. 11 directly with
    // the plan's omega for the hand check.
    std::vector<U128> x = {U128{1}, U128{2}, U128{3}, U128{4}};
    auto y = ntt::referenceNtt(plan, x);
    for (size_t k = 0; k < 4; ++k) {
        U128 acc{0};
        for (size_t j = 0; j < 4; ++j) {
            U128 term = m.mul(x[j], m.pow(plan.omega(),
                                          U128{static_cast<uint64_t>(j * k)}));
            acc = m.add(acc, term);
        }
        EXPECT_EQ(y[k], acc);
    }
    // Inverse recovers the input.
    EXPECT_EQ(ntt::referenceIntt(plan, y), x);
}

class NttBackend : public testing::TestWithParam<Backend>
{
};

TEST_P(NttBackend, ForwardMatchesReferenceBitReversed)
{
    Backend be = GetParam();
    for (size_t n : {2u, 4u, 8u, 16u, 64u, 256u}) {
        ntt::NttPlan plan(testPrime(), n);
        auto input = randomResidues(n, testPrime().q, 42 + n);
        auto expect = ntt::referenceNtt(plan, input); // natural order
        auto got = runForward(plan, be, input);       // bit-reversed
        EXPECT_EQ(bitReverse(got), expect)
            << "n=" << n << " backend=" << backendName(be);
    }
}

TEST_P(NttBackend, RoundTripIsIdentity)
{
    Backend be = GetParam();
    for (size_t n : {2u, 8u, 32u, 128u, 1024u, 4096u}) {
        ntt::NttPlan plan(testPrime(), n);
        auto input = randomResidues(n, testPrime().q, 1000 + n);
        auto transformed = runForward(plan, be, input);
        auto back = runInverse(plan, be, transformed);
        EXPECT_EQ(back, input) << "n=" << n << " backend=" << backendName(be);
    }
}

TEST_P(NttBackend, LinearityHolds)
{
    Backend be = GetParam();
    const size_t n = 128;
    ntt::NttPlan plan(testPrime(), n);
    const Modulus& m = plan.modulus();
    auto f = randomResidues(n, testPrime().q, 1);
    auto g = randomResidues(n, testPrime().q, 2);
    SplitMix64 rng(3);
    U128 alpha = rng.nextBelow(testPrime().q);
    // NTT(alpha*f + g) == alpha*NTT(f) + NTT(g).
    std::vector<U128> combo(n);
    for (size_t i = 0; i < n; ++i)
        combo[i] = m.add(m.mul(alpha, f[i]), g[i]);
    auto lhs = runForward(plan, be, combo);
    auto tf = runForward(plan, be, f);
    auto tg = runForward(plan, be, g);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(lhs[i], m.add(m.mul(alpha, tf[i]), tg[i])) << "i=" << i;
}

TEST_P(NttBackend, ConvolutionTheorem)
{
    Backend be = GetParam();
    const size_t n = 64;
    ntt::NttPlan plan(testPrime(), n);
    const Modulus& m = plan.modulus();
    auto f = randomResidues(n, testPrime().q, 10);
    auto g = randomResidues(n, testPrime().q, 11);
    auto tf = runForward(plan, be, f);
    auto tg = runForward(plan, be, g);
    std::vector<U128> prod(n);
    for (size_t i = 0; i < n; ++i)
        prod[i] = m.mul(tf[i], tg[i]);
    auto conv = runInverse(plan, be, prod);
    EXPECT_EQ(conv, ntt::cyclicConvolution(m, f, g));
}

TEST_P(NttBackend, KaratsubaPathAgrees)
{
    // Reduction::BarrettKaratsuba, the Section 5.5 ablation, gives
    // Barrett's words in both directions.
    Backend be = GetParam();
    const size_t n = 256;
    ntt::NttPlan plan(testPrime(), n);
    auto input = randomResidues(n, testPrime().q, 77);
    auto fwd = runForward(plan, be, input, Reduction::Barrett);
    EXPECT_EQ(runForward(plan, be, input, Reduction::BarrettKaratsuba), fwd);
    EXPECT_EQ(runInverse(plan, be, fwd, Reduction::BarrettKaratsuba),
              runInverse(plan, be, fwd, Reduction::Barrett));
}

TEST_P(NttBackend, ShoupLazyBitIdenticalToBarrett)
{
    // Acceptance: the Shoup-lazy steady state must produce EXACTLY the
    // Barrett path's words on every compiled backend, for n spanning
    // 8..4096, on both the forward and inverse transforms.
    Backend be = GetParam();
    for (size_t n : {8u, 16u, 64u, 256u, 1024u, 4096u}) {
        ntt::NttPlan plan(testPrime(), n);
        auto input = randomResidues(n, testPrime().q, 31337 + n);
        auto fwd_shoup = runForward(plan, be, input, Reduction::ShoupLazy);
        auto fwd_barrett = runForward(plan, be, input, Reduction::Barrett);
        EXPECT_EQ(fwd_shoup, fwd_barrett)
            << "forward n=" << n << " backend=" << backendName(be);
        auto inv_shoup = runInverse(plan, be, fwd_shoup, Reduction::ShoupLazy);
        auto inv_barrett = runInverse(plan, be, fwd_shoup,
                                      Reduction::Barrett);
        EXPECT_EQ(inv_shoup, inv_barrett)
            << "inverse n=" << n << " backend=" << backendName(be);
        EXPECT_EQ(inv_shoup, input) << "roundtrip n=" << n;
    }
}

TEST_P(NttBackend, ShoupLazyBitIdenticalOnWideModulus)
{
    // The 124-bit Barrett ceiling is also the lazy-headroom edge: 4q
    // just fits below 2^126. Exercise it explicitly.
    Backend be = GetParam();
    const auto& prime = ntt::defaultBenchPrime();
    const size_t n = 256;
    ntt::NttPlan plan(prime, n);
    auto input = randomResidues(n, prime.q, 99);
    EXPECT_EQ(runForward(plan, be, input, Reduction::ShoupLazy),
              runForward(plan, be, input, Reduction::Barrett));
}

TEST_P(NttBackend, WideModulusWorks)
{
    // Full 124-bit modulus: the Barrett ceiling.
    Backend be = GetParam();
    const auto& prime = ntt::defaultBenchPrime();
    ASSERT_EQ(prime.bits, 124);
    const size_t n = 128;
    ntt::NttPlan plan(prime, n);
    auto input = randomResidues(n, prime.q, 5);
    auto expect = ntt::referenceNtt(plan, input);
    EXPECT_EQ(bitReverse(runForward(plan, be, input)), expect);
    EXPECT_EQ(runInverse(plan, be, runForward(plan, be, input)), input);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, NttBackend,
                         testing::ValuesIn(test::availableCorrectBackends()),
                         test::backendParamName);

TEST_P(NttBackend, Radix4BitIdenticalToRadix2)
{
    // Acceptance: the fused radix-4 passes must produce EXACTLY the
    // radix-2 path's words on every compiled backend, for odd and even
    // logn, under both reduction strategies (Barrett ignores the knob
    // by design — the fused kernels are Shoup-lazy — so the comparison
    // is trivially exact there, but the dispatch path is exercised).
    Backend be = GetParam();
    for (size_t n : {4u, 8u, 16u, 32u, 64u, 128u, 256u, 512u, 1024u, 2048u,
                     4096u}) {
        ntt::NttPlan plan(testPrime(), n);
        auto input = randomResidues(n, testPrime().q, 7777 + n);
        for (Reduction red : {Reduction::ShoupLazy, Reduction::Barrett}) {
            auto fwd4 = runForward(plan, be, input, red, StageFusion::Radix4);
            auto fwd2 = runForward(plan, be, input, red, StageFusion::Radix2);
            EXPECT_EQ(fwd4, fwd2) << "forward n=" << n
                                  << " backend=" << backendName(be);
            auto inv4 = runInverse(plan, be, fwd2, red, StageFusion::Radix4);
            auto inv2 = runInverse(plan, be, fwd2, red, StageFusion::Radix2);
            EXPECT_EQ(inv4, inv2) << "inverse n=" << n
                                  << " backend=" << backendName(be);
            EXPECT_EQ(inv4, input) << "roundtrip n=" << n;
        }
    }
}

TEST_P(NttBackend, Radix4BitIdenticalOnWideModulus)
{
    // The 124-bit Barrett/lazy-headroom ceiling under stage fusion.
    Backend be = GetParam();
    const auto& prime = ntt::defaultBenchPrime();
    for (size_t n : {128u, 256u}) { // odd and even logn
        ntt::NttPlan plan(prime, n);
        auto input = randomResidues(n, prime.q, 4242 + n);
        auto fwd4 = runForward(plan, be, input, Reduction::ShoupLazy,
                               StageFusion::Radix4);
        EXPECT_EQ(fwd4, runForward(plan, be, input, Reduction::ShoupLazy,
                                   StageFusion::Radix2));
        EXPECT_EQ(runInverse(plan, be, fwd4, Reduction::ShoupLazy,
                             StageFusion::Radix4),
                  input);
    }
}

TEST(NttLargeN, Radix2AndRadix4IdenticalAtRealFheSizes)
{
    // The raised size ceiling: n = 2^16 (even logn) and 2^17 (odd logn)
    // — the realistic FHE sizes — on every compiled backend, with the
    // default (Auto) fusion checked against both explicit shapes.
    for (size_t n : {size_t{1} << 16, size_t{1} << 17}) {
        ntt::NttPlan direct(testPrime(), n);
        auto input = randomResidues(n, testPrime().q, 90000 + n);
        for (Backend be : availableCorrectBackends()) {
            SCOPED_TRACE(backendName(be));
            auto fwd2 = runForward(direct, be, input, Reduction::ShoupLazy,
                                   StageFusion::Radix2);
            auto fwd4 = runForward(direct, be, input, Reduction::ShoupLazy,
                                   StageFusion::Radix4);
            EXPECT_EQ(fwd4, fwd2) << "radix4 fwd n=" << n;
            EXPECT_EQ(runForward(direct, be, input), fwd2)
                << "auto fwd n=" << n;
            auto inv2 = runInverse(direct, be, fwd2, Reduction::ShoupLazy,
                                   StageFusion::Radix2);
            auto inv4 = runInverse(direct, be, fwd2, Reduction::ShoupLazy,
                                   StageFusion::Radix4);
            EXPECT_EQ(inv4, inv2) << "radix4 inv n=" << n;
            EXPECT_EQ(runInverse(direct, be, fwd2), inv2)
                << "auto inv n=" << n;
            EXPECT_EQ(inv2, input) << "roundtrip n=" << n;
        }
    }
}

TEST(NttLargeN, BarrettAgreesAtN65536)
{
    // One Barrett pass at 2^16 keeps the (slow) ablation baseline
    // honest at the large sizes without exploding the matrix.
    const size_t n = size_t{1} << 16;
    ntt::NttPlan direct(testPrime(), n);
    auto input = randomResidues(n, testPrime().q, 1234);
    Backend be = bestBackend();
    auto fwd_barrett = runForward(direct, be, input, Reduction::Barrett);
    EXPECT_EQ(runForward(direct, be, input), fwd_barrett);
    EXPECT_EQ(runInverse(direct, be, fwd_barrett, Reduction::Barrett),
              input);
}

TEST(NttLargeN, WideModulusCeilingAtN65536)
{
    // The 124-bit modulus at 2^16: lazy headroom and Shoup companions
    // at the Barrett ceiling, fused and unfused.
    const size_t n = size_t{1} << 16;
    const auto& prime = ntt::defaultBenchPrime();
    ntt::NttPlan direct(prime, n);
    auto input = randomResidues(n, prime.q, 5678);
    Backend be = bestBackend();
    auto fwd2 = runForward(direct, be, input, Reduction::ShoupLazy,
                           StageFusion::Radix2);
    EXPECT_EQ(runForward(direct, be, input, Reduction::ShoupLazy,
                         StageFusion::Radix4),
              fwd2);
    EXPECT_EQ(runInverse(direct, be, fwd2), input);
}

TEST(NttMqxVariants, AllEmulatedVariantsMatchScalar)
{
    if (!backendAvailable(Backend::MqxEmulate))
        GTEST_SKIP() << "AVX-512 not available";
    const size_t n = 256;
    ntt::NttPlan plan(testPrime(), n);
    auto input = randomResidues(n, testPrime().q, 123);
    auto expect = runForward(plan, Backend::Scalar, input);
    for (MqxVariant v :
         {MqxVariant::MulOnly, MqxVariant::CarryOnly, MqxVariant::Full,
          MqxVariant::MulhiCarry, MqxVariant::FullPredicated}) {
        ResidueVector vin = ResidueVector::fromU128(input);
        ResidueVector out(n), scratch(n);
        ntt::forwardMqx(plan, v, /*pisa=*/false, vin.span(), out.span(),
                        scratch.span());
        EXPECT_EQ(out.toU128(), expect) << mqxVariantName(v);
        // Inverse roundtrip per variant.
        ResidueVector back(n);
        ntt::inverseMqx(plan, v, false, out.span(), back.span(),
                        scratch.span());
        EXPECT_EQ(back.toU128(), input) << mqxVariantName(v);
    }
}

TEST(NttErrors, BufferValidation)
{
    ntt::NttPlan plan(testPrime(), 16);
    ResidueVector a(16), b(16), c(8);
    // Wrong scratch size.
    EXPECT_THROW(ntt::forward(plan, Backend::Scalar, a.span(), b.span(),
                              c.span()),
                 InvalidArgument);
    // Aliased buffers.
    EXPECT_THROW(ntt::forward(plan, Backend::Scalar, a.span(), a.span(),
                              b.span()),
                 InvalidArgument);
}

TEST(NttErrors, RejectsLoAndMixedAliasing)
{
    // The ping-pong needs three fully distinct buffers: distinct hi
    // pointers are NOT enough. Aliased lo arrays and mixed hi/lo
    // overlap must be rejected too (span-overlap contract).
    ntt::NttPlan plan(testPrime(), 16);
    ResidueVector a(16), b(16), c(16), d(16);
    DSpan sa = a.span(), sb = b.span(), sc = c.span(), sd = d.span();

    // out shares its lo array with in (hi pointers distinct).
    DSpan lo_aliased{sb.hi, sa.lo, 16};
    EXPECT_THROW(ntt::forward(plan, Backend::Scalar, sa, lo_aliased, sc),
                 InvalidArgument);

    // scratch's hi array is in's lo array (mixed hi/lo overlap).
    DSpan mixed{sa.lo, sd.lo, 16};
    EXPECT_THROW(ntt::forward(plan, Backend::Scalar, sa, sb, mixed),
                 InvalidArgument);

    // out and scratch share a lo array.
    DSpan scratch_shared{sd.hi, sb.lo, 16};
    EXPECT_THROW(
        ntt::forward(plan, Backend::Scalar, sa, sb, scratch_shared),
        InvalidArgument);

    // Inverse goes through the same validation.
    EXPECT_THROW(ntt::inverse(plan, Backend::Scalar, sa, lo_aliased, sc),
                 InvalidArgument);

    // Fully distinct buffers still work.
    EXPECT_NO_THROW(ntt::forward(plan, Backend::Scalar, sa, sb, sc));
}

TEST(NttErrors, MessagesCarryBufferGeometry)
{
    // The validation error text names the offending pointers and
    // lengths plus the plan's n, so a failing dispatch log identifies
    // WHICH buffer is wrong without a debugger.
    ntt::NttPlan plan(testPrime(), 16);
    ResidueVector a(16), b(16), c(8);
    try {
        ntt::forward(plan, Backend::Scalar, a.span(), b.span(), c.span());
        FAIL() << "size mismatch not rejected";
    } catch (const InvalidArgument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("buffer sizes must equal the plan size"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("plan n=16"), std::string::npos) << msg;
        // The offending scratch length and every buffer's base pointers
        // are spelled out.
        EXPECT_NE(msg.find("scratch hi="), std::string::npos) << msg;
        EXPECT_NE(msg.find("n=8"), std::string::npos) << msg;
        char ptr[32];
        std::snprintf(ptr, sizeof ptr, "%p",
                      static_cast<const void*>(a.span().hi));
        EXPECT_NE(msg.find(ptr), std::string::npos) << msg;
    }
    try {
        ntt::forward(plan, Backend::Scalar, a.span(), a.span(), b.span());
        FAIL() << "aliasing not rejected";
    } catch (const InvalidArgument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("distinct, non-overlapping"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("plan n=16"), std::string::npos) << msg;
    }
    // The scratch-aliasing rejection carries the same geometry report
    // (out and scratch sharing one lo array).
    ResidueVector d(16);
    DSpan shared{d.span().hi, b.span().lo, 16};
    try {
        ntt::forward(plan, Backend::Scalar, a.span(), b.span(), shared);
        FAIL() << "scratch aliasing not rejected";
    } catch (const InvalidArgument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("distinct, non-overlapping"), std::string::npos)
            << msg;
        char ptr[32];
        std::snprintf(ptr, sizeof ptr, "%p",
                      static_cast<const void*>(b.span().lo));
        EXPECT_NE(msg.find(ptr), std::string::npos) << msg;
    }
}

TEST(NttOrdering, ForwardIsBitReversedReference)
{
    // The documented ordering contract, explicitly.
    const size_t n = 32;
    ntt::NttPlan plan(testPrime(), n);
    auto input = randomResidues(n, testPrime().q, 55);
    auto natural = ntt::referenceNtt(plan, input);
    auto ours = runForward(plan, Backend::Scalar, input);
    EXPECT_EQ(ours, bitReverse(natural));
}

TEST(NttBackendIfma, WordIdenticalToEmulatedAvx512)
{
    // Backend::Avx512 is one tier body built twice: on the emulated
    // 64x64 multiply and on IFMA 52-bit limbs (Shoup and Barrett). Every
    // output word must agree, and so must the words a transform leaves
    // in its scratch buffer (the last ping-pong stage before the output).
#if MQX_BUILD_AVX512_IFMA
    if (!avx512Ifma())
        GTEST_SKIP() << "host lacks AVX-512 IFMA (or XCR0 ZMM state): "
                        "Backend::Avx512 runs the emulated multiply only";
    namespace be = ntt::backends;
    const auto& prime = ntt::defaultBenchPrime(); // 124 bits: all 3 limbs
    auto same = [](const ResidueVector& x, const ResidueVector& y) {
        return x.toU128() == y.toU128();
    };
    for (size_t n : {size_t{16}, size_t{4096}, size_t{1} << 16}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        ntt::NttPlan plan(prime, n);
        ResidueVector in =
            ResidueVector::fromU128(randomResidues(n, prime.q, 0x1f3a + n));
        for (auto [red, fusion] :
             {std::pair{Reduction::ShoupLazy, StageFusion::Radix2},
              std::pair{Reduction::ShoupLazy, StageFusion::Radix4},
              std::pair{Reduction::Barrett, StageFusion::Radix2}}) {
            SCOPED_TRACE(red == Reduction::Barrett
                             ? "barrett"
                             : (fusion == StageFusion::Radix2 ? "radix2"
                                                              : "radix4"));
            const ntt::detail::PeaseShape shape{red, fusion};
            const auto fw = ntt::detail::forwardTwiddles(plan);
            const auto iw = ntt::detail::inverseTwiddles(plan);
            ResidueVector fe(n), fse(n), fi(n), fsi(n);
            be::forwardAvx512(plan, fw, in.span(), fe.span(), fse.span(),
                              shape);
            be::forwardAvx512Ifma(plan, fw, in.span(), fi.span(), fsi.span(),
                                  shape);
            EXPECT_TRUE(same(fe, fi)) << "forward output";
            EXPECT_TRUE(same(fse, fsi)) << "forward lazy intermediates";
            ResidueVector ie(n), ise(n), ii(n), isi(n);
            be::inverseAvx512(plan, iw, fe.span(), ie.span(), ise.span(),
                              shape);
            be::inverseAvx512Ifma(plan, iw, fe.span(), ii.span(), isi.span(),
                                  shape);
            EXPECT_TRUE(same(ie, ii)) << "inverse output";
            EXPECT_TRUE(same(ise, isi)) << "inverse lazy intermediates";
            EXPECT_TRUE(same(ii, in)) << "roundtrip";
        }
    }
#else
    GTEST_SKIP() << "IFMA build of the AVX-512 tier not compiled in";
#endif
}

TEST(NttBackendIfma, DispatchFollowsCpuid)
{
    const bool expect = MQX_BUILD_AVX512_IFMA &&
                        backendAvailable(Backend::Avx512) &&
                        hostCpuFeatures().hasAvx512Ifma();
    EXPECT_EQ(avx512Ifma(), expect);
    const std::string kernel = avx512Kernel();
    EXPECT_EQ(kernel, !backendAvailable(Backend::Avx512)
                          ? "unavailable"
                          : (expect ? "ifma" : "emulated"));
}

} // namespace
} // namespace mqx
