/**
 * @file
 * Range-contract tests for the Lazy<Bound> algebra (mod/range_checked.h).
 *
 * Three layers:
 *  1. Static contract checks: the widening lattice Q -> TwoQ -> FourQ is
 *     implicit, every narrowing or bound-mixing expression refuses to
 *     compile (requires-expression probes — the build fails here if the
 *     algebra ever loosens). The companion NEGATIVE compile test,
 *     tests/fixtures/range_violation.cc, proves a violating kernel
 *     snippet actually fails to build (ctest: range_contract_violation).
 *  2. Bit-identity: the scalar cores of the one Pease body — radix-2,
 *     radix-4 and Barrett, over the cyclic plan's and the merged
 *     negacyclic twiddles — instantiated over CheckedLazyOps produce
 *     word-identical results to the production backends (which compile
 *     LazyOps unless MQX_RANGE_AUDIT is on); the per-pass hook also
 *     asserts each pass's output bound.
 *  3. Audit mode: under MQX_RANGE_AUDIT the dynamic bound assertions
 *     abort on an out-of-contract value (death test) and stay silent on
 *     the whole in-contract suite.
 */
#include <gtest/gtest.h>

#include <memory>

#include "mod/range_checked.h"
#include "ntt/negacyclic.h"
#include "ntt/ntt.h"
#include "ntt/pease_impl.h"
#include "test_util.h"

namespace mqx {
namespace {

using mod::Bound;
using mod::CheckedLazyOps;
using mod::Lazy;
using mod::LazyOps;

using LazyQ = Lazy<Bound::Q>;
using Lazy2Q = Lazy<Bound::TwoQ>;
using Lazy4Q = Lazy<Bound::FourQ>;
using Dw = mod::DW<uint64_t>;

// ---------------------------------------------------------------------------
// 1. The contract algebra, statically.
// ---------------------------------------------------------------------------

// Widening is implicit and strictly one-directional.
static_assert(std::is_convertible_v<LazyQ, Lazy2Q>);
static_assert(std::is_convertible_v<LazyQ, Lazy4Q>);
static_assert(std::is_convertible_v<Lazy2Q, Lazy4Q>);
static_assert(!std::is_convertible_v<Lazy2Q, LazyQ>);
static_assert(!std::is_convertible_v<Lazy4Q, LazyQ>);
static_assert(!std::is_convertible_v<Lazy4Q, Lazy2Q>);

// No implicit entry from untyped values: fromRaw is the only boundary.
static_assert(!std::is_constructible_v<Lazy2Q, Dw>);
static_assert(!std::is_convertible_v<Dw, Lazy4Q>);

// Expression probes live in variable templates so that an ill-formed
// algebra call is a substitution failure (-> false), not a hard error.
template <class X, class Y>
constexpr bool kCanAdd = requires(X a, Y b, Dw q) {
    mod::addModLazy(a, b, q);
};
template <class X, class Y>
constexpr bool kCanSubRaw = requires(X a, Y b, Dw q2, Dw q) {
    mod::subModLazyRaw(a, b, q2, q);
};
template <class X, class Y>
constexpr bool kCanMulShoup = requires(X a, Y w, Dw wq, Dw q) {
    mod::mulModShoup(a, w, wq, q);
};
template <class X>
constexpr bool kCanCanonicalize = requires(X x, Dw q) {
    mod::canonicalize(x, q);
};
template <class X>
constexpr bool kCanCondSub = requires(X x, Dw q2, Dw q) {
    mod::condSubDw(x, q2, q);
};

// A transient cannot re-enter the butterfly sum or difference without
// first passing through condSubDw (the FourQ -> TwoQ reduction).
static_assert(!kCanAdd<Lazy4Q, Lazy4Q>);
static_assert(!kCanAdd<Lazy2Q, Lazy4Q>);
static_assert(!kCanSubRaw<Lazy2Q, Lazy4Q>);

// The Shoup multiplicand must be CANONICAL (< q): plan twiddle tables
// qualify, stage operands and transients do not.
static_assert(!kCanMulShoup<Lazy4Q, Lazy2Q>);
static_assert(!kCanMulShoup<Lazy4Q, Lazy4Q>);

// Canonicalization consumes a stage operand, not a raw transient, and
// condSubDw consumes a transient.
static_assert(!kCanCanonicalize<Lazy4Q>);
static_assert(kCanCanonicalize<Lazy2Q>);
static_assert(kCanCondSub<Lazy4Q>);
static_assert(kCanAdd<Lazy2Q, Lazy2Q>);
static_assert(kCanSubRaw<Lazy2Q, Lazy2Q>);
static_assert(kCanMulShoup<Lazy4Q, LazyQ>);

// The legal chain end to end (positive control for the probes above);
// widening is spelled at the type level where a tighter value meets a
// looser slot.
static_assert(requires(Lazy2Q a, LazyQ w, Dw wq, Dw q2, Dw q) {
    mod::canonicalize(
        mod::condSubDw(mod::addModLazy(a, a, q), q2, q), q);
    mod::mulModShoup(mod::subModLazyRaw(a, a, q2, q), w, wq, q);
    mod::canonicalize(Lazy2Q(w), q);
});

// ---------------------------------------------------------------------------
// 2. Bit-identity of the checked instantiations.
//
// The drivers below run the scalar cores Backend::Scalar itself runs
// (ntt::detail::forwardScalarCore / inverseScalarCore), instantiated
// with an explicit policy: with A = LazyOps they ARE the production
// arithmetic; with A = CheckedLazyOps every value is typed and (in audit
// builds) bound-asserted. Their per-pass hook checks each pass's output
// bound. Both must match the public scalar backend word for word.
// ---------------------------------------------------------------------------

using ntt::detail::PeaseShape;
using ntt::detail::PeaseTwiddles;

/** Every word of @p v is below @p multiple * q (multiple in {1, 2, 4}). */
::testing::AssertionResult
allBelow(DConstSpan v, unsigned multiple, const Dw& q)
{
    Dw limit = q;
    for (unsigned m = 1; m < multiple; m <<= 1)
        limit = mod::shl1Dw(limit);
    for (size_t i = 0; i < v.n; ++i) {
        if (!(Dw{v.hi[i], v.lo[i]} < limit))
            return ::testing::AssertionFailure() << "word " << i;
    }
    return ::testing::AssertionSuccess();
}

/**
 * The scalar forward core with policy A, checking the range contract
 * after every pass: [0, 4q) between passes (canonical under either
 * Barrett reduction), canonical out of the last one.
 */
template <class A>
void
checkedForward(const ntt::NttPlan& plan, const PeaseTwiddles& tw,
               DConstSpan in, DSpan out, PeaseShape shape)
{
    const Dw q = mod::toDw(plan.modulus().value());
    const int last = plan.logn() - 1;
    ResidueVector scratch(in.n);
    auto check = [&](DConstSpan dst, int s) {
        const bool canonical = shape.red != Reduction::ShoupLazy || s == last;
        EXPECT_TRUE(allBelow(dst, canonical ? 1 : 4, q)) << "stage " << s;
    };
    ntt::detail::forwardScalarCore<1, A>(plan, tw, 1, in, out, scratch.span(),
                                         shape, check);
}

/**
 * The scalar inverse core, checked: [0, 2q) between passes (canonical
 * under either Barrett reduction), canonical out of the last
 * (n^-1-folded) stage.
 */
template <class A>
void
checkedInverse(const ntt::NttPlan& plan, const PeaseTwiddles& tw,
               DConstSpan in, DSpan out, PeaseShape shape)
{
    const Dw q = mod::toDw(plan.modulus().value());
    ResidueVector scratch(in.n);
    auto check = [&](DConstSpan dst, int s) {
        const bool canonical = shape.red != Reduction::ShoupLazy || s == 0;
        EXPECT_TRUE(allBelow(dst, canonical ? 1 : 2, q)) << "stage " << s;
    };
    ntt::detail::inverseScalarCore<1, A>(plan, tw, 1, in, out, scratch.span(),
                                         shape, check);
}

/**
 * Checked cyclic forward and inverse in @p shape vs the Scalar backend,
 * plus the checked round trip back to the input.
 */
void
expectCheckedCyclic(const ntt::NttPlan& plan, PeaseShape shape, uint64_t seed)
{
    const size_t n = plan.n();
    const auto fw = ntt::detail::forwardTwiddles(plan);
    const auto iw = ntt::detail::inverseTwiddles(plan);
    auto in = randomResidues(n, plan.modulus().value(), seed);
    ResidueVector vin = ResidueVector::fromU128(in);
    ResidueVector want(n), ws(n), checked(n), unchecked(n);

    ntt::forward(plan, Backend::Scalar, vin.span(), want.span(), ws.span(),
                 shape.red, shape.fusion);
    checkedForward<CheckedLazyOps>(plan, fw, vin.span(), checked.span(), shape);
    checkedForward<LazyOps>(plan, fw, vin.span(), unchecked.span(), shape);
    EXPECT_EQ(want.toU128(), checked.toU128());
    EXPECT_EQ(want.toU128(), unchecked.toU128());

    ResidueVector inv_want(n), inv_checked(n);
    ntt::inverse(plan, Backend::Scalar, want.span(), inv_want.span(), ws.span(),
                 shape.red, shape.fusion);
    checkedInverse<CheckedLazyOps>(plan, iw, checked.span(), inv_checked.span(),
                                   shape);
    EXPECT_EQ(inv_want.toU128(), inv_checked.toU128());
    EXPECT_EQ(in, inv_checked.toU128());
}

using Tables = ntt::NegacyclicTables;

/** Checked merged forward and inverse vs the Scalar backend's engine,
 *  radix-2 and radix-4. */
void
expectCheckedNegacyclic(const ntt::NttPrime& prime, size_t n, uint64_t seed)
{
    auto t = std::make_shared<const Tables>(prime, n);
    const ntt::NttPlan& plan = t->plan();
    const auto fw = ntt::detail::forwardTwiddles(*t);
    const auto iw = ntt::detail::inverseTwiddles(*t);
    ntt::NegacyclicEngine engine(t, Backend::Scalar);
    auto in = randomResidues(n, plan.modulus().value(), seed);
    ResidueVector vin = ResidueVector::fromU128(in);
    ResidueVector want(n), inv_want(n);
    engine.forward(vin.span(), want.span());
    engine.inverse(want.span(), inv_want.span());

    for (StageFusion fusion : {StageFusion::Radix2, StageFusion::Radix4}) {
        SCOPED_TRACE(fusion == StageFusion::Radix4 ? "radix4" : "radix2");
        const PeaseShape shape{Reduction::ShoupLazy, fusion};
        ResidueVector checked(n), unchecked(n), back(n);
        checkedForward<CheckedLazyOps>(plan, fw, vin.span(), checked.span(),
                                       shape);
        checkedForward<LazyOps>(plan, fw, vin.span(), unchecked.span(), shape);
        EXPECT_EQ(want.toU128(), checked.toU128());
        EXPECT_EQ(want.toU128(), unchecked.toU128());
        // Inverse of the forward's output, then the full checked
        // roundtrip.
        checkedInverse<CheckedLazyOps>(plan, iw, want.span(), back.span(),
                                       shape);
        EXPECT_EQ(inv_want.toU128(), back.toU128());
        EXPECT_EQ(in, back.toU128());
    }
}

constexpr PeaseShape kRadix2{Reduction::ShoupLazy, StageFusion::Radix2};
constexpr PeaseShape kRadix4{Reduction::ShoupLazy, StageFusion::Radix4};
constexpr PeaseShape kBarrett{Reduction::Barrett, StageFusion::Radix2};
constexpr PeaseShape kBarrettKaratsuba{Reduction::BarrettKaratsuba,
                                       StageFusion::Radix2};

class RangeContract : public ::testing::TestWithParam<size_t>
{
};

TEST_P(RangeContract, CheckedRadix2BitIdenticalToScalarBackend)
{
    const size_t n = GetParam();
    expectCheckedCyclic(ntt::NttPlan(ntt::smallTestPrime(), n), kRadix2,
                        0x7001 + n);
}

TEST_P(RangeContract, CheckedRadix4BitIdenticalToScalarBackend)
{
    const size_t n = GetParam();
    expectCheckedCyclic(ntt::NttPlan(ntt::smallTestPrime(), n), kRadix4,
                        0x7002 + n);
}

TEST_P(RangeContract, CheckedBarrettBitIdenticalToScalarBackend)
{
    const size_t n = GetParam();
    expectCheckedCyclic(ntt::NttPlan(ntt::smallTestPrime(), n), kBarrett,
                        0x7006 + n);
}

TEST_P(RangeContract, CheckedMergedNegacyclicBitIdentical)
{
    const size_t n = GetParam();
    expectCheckedNegacyclic(ntt::smallTestPrime(), n, 0x7003 + n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RangeContract,
                         ::testing::Values(8, 64, 256, 1024));

TEST(RangeContract, CheckedCoresAtBarrettCeiling)
{
    // The 124-bit prime exercises the lazy headroom edge: 4q is within
    // 2^128 by exactly the 4 reserved bits. Checked radix-2, radix-4 and
    // both Barretts must agree with the backend there too; n = 64 and
    // 128 cover even and odd logn.
    ntt::NttPrime prime = ntt::findNttPrime(124, 10);
    ASSERT_EQ(prime.bits, 124);
    for (size_t n : {size_t{64}, size_t{128}}) {
        ntt::NttPlan plan(prime, n);
        for (PeaseShape shape : {kRadix2, kRadix4, kBarrett, kBarrettKaratsuba})
            expectCheckedCyclic(plan, shape, 0x7004 + n);
    }
    // The merged negacyclic forward holds [0, 4q) between stages: at 124
    // bits that is the whole 4-bit headroom.
    expectCheckedNegacyclic(prime, 64, 0x7005);
}

// ---------------------------------------------------------------------------
// 3. MQX_RANGE_AUDIT dynamic assertions.
// ---------------------------------------------------------------------------

#if defined(MQX_RANGE_AUDIT) && MQX_RANGE_AUDIT && defined(GTEST_HAS_DEATH_TEST)

TEST(RangeAuditDeathTest, OutOfBoundValueAborts)
{
    const Dw q = mod::toDw(ntt::smallTestPrime().q);
    // q itself violates the canonical bound [0, q).
    EXPECT_DEATH((void)LazyQ::fromRaw(q, q, "death-test"),
                 "MQX_RANGE_AUDIT violation");
    // 2q violates the stage-operand bound [0, 2q).
    EXPECT_DEATH((void)Lazy2Q::fromRaw(mod::shl1Dw(q), q, "death-test"),
                 "MQX_RANGE_AUDIT violation");
}

#endif

} // namespace
} // namespace mqx
