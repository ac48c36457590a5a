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
 *  2. Bit-identity: the scalar Pease radix-2 and radix-4 lazy cores and
 *     the merged negacyclic forward/inverse instantiated over
 *     CheckedLazyOps produce word-identical results to the production
 *     backends (which compile LazyOps unless MQX_RANGE_AUDIT is on);
 *     the merged drivers also assert each stage's output bound.
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
// The drivers below mirror the production scalar drivers in
// ntt_scalar.cc stage for stage, but instantiate the shared butterfly
// cores with an explicit policy. With A = LazyOps they ARE the
// production arithmetic; with A = CheckedLazyOps every value is typed
// and (in audit builds) bound-asserted. Both must match the public
// scalar backend word for word.
// ---------------------------------------------------------------------------

template <class A>
void
checkedForwardRadix2(const ntt::NttPlan& plan, DConstSpan in, DSpan out,
                     DSpan scratch, MulAlgo algo)
{
    const size_t h = plan.half();
    const int m = plan.logn();
    const Dw q = mod::toDw(plan.modulus().value());
    const Dw q2 = mod::shl1Dw(q);
    DSpan bufs[2] = {out, scratch};
    int target = (m % 2 == 1) ? 0 : 1;
    const uint64_t* src_hi = in.hi;
    const uint64_t* src_lo = in.lo;
    for (int s = 0; s < m; ++s) {
        const bool last = s == m - 1;
        DSpan dst = bufs[target];
        for (size_t j = 0; j < h; ++j) {
            ntt::detail::forwardButterflyLazyScalar<A>(
                q, q2, src_hi, src_lo, dst.hi, dst.lo, plan.twiddleHi(),
                plan.twiddleLo(), plan.twiddleShoupHi(),
                plan.twiddleShoupLo(), j, h, s, last, algo);
        }
        src_hi = dst.hi;
        src_lo = dst.lo;
        target ^= 1;
    }
}

template <class A>
void
checkedInverseRadix2(const ntt::NttPlan& plan, DConstSpan in, DSpan out,
                     DSpan scratch, MulAlgo algo)
{
    const size_t h = plan.half();
    const int m = plan.logn();
    const Dw q = mod::toDw(plan.modulus().value());
    const Dw q2 = mod::shl1Dw(q);
    DSpan bufs[2] = {out, scratch};
    int target = (m % 2 == 1) ? 0 : 1;
    const uint64_t* src_hi = in.hi;
    const uint64_t* src_lo = in.lo;
    for (int s = m - 1; s >= 0; --s) {
        DSpan dst = bufs[target];
        for (size_t j = 0; j < h; ++j) {
            ntt::detail::inverseButterflyLazyScalar<A>(
                q, q2, src_hi, src_lo, dst.hi, dst.lo, plan.twiddleInvHi(),
                plan.twiddleInvLo(), plan.twiddleInvShoupHi(),
                plan.twiddleInvShoupLo(), j, h, s, algo);
        }
        src_hi = dst.hi;
        src_lo = dst.lo;
        target ^= 1;
    }
    const Dw dn = mod::toDw(plan.nInv());
    const Dw dnq = mod::toDw(plan.nInvShoup());
    for (size_t i = 0; i < plan.n(); ++i) {
        ntt::detail::mulShoupCanonElementScalar<A>(
            q, out.hi, out.lo, out.hi, out.lo, dn, dnq, i, algo);
    }
}

template <class A>
void
checkedForwardRadix4(const ntt::NttPlan& plan, DConstSpan in, DSpan out,
                     DSpan scratch, MulAlgo algo)
{
    const size_t h = plan.half();
    const size_t h2 = h / 2;
    const int m = plan.logn();
    const Dw q = mod::toDw(plan.modulus().value());
    const Dw q2 = mod::shl1Dw(q);
    const uint64_t* tw_hi = plan.twiddleHi();
    const uint64_t* tw_lo = plan.twiddleLo();
    const uint64_t* twq_hi = plan.twiddleShoupHi();
    const uint64_t* twq_lo = plan.twiddleShoupLo();
    DSpan bufs[2] = {out, scratch};
    const int passes = (m + 1) / 2;
    int target = (passes % 2 == 1) ? 0 : 1;
    const uint64_t* src_hi = in.hi;
    const uint64_t* src_lo = in.lo;
    int s = 0;
    if (m % 2 == 1) {
        DSpan dst = bufs[target];
        for (size_t j = 0; j < h; ++j) {
            ntt::detail::forwardButterflyLazyScalar<A>(
                q, q2, src_hi, src_lo, dst.hi, dst.lo, tw_hi, tw_lo, twq_hi,
                twq_lo, j, h, 0, m == 1, algo);
        }
        src_hi = dst.hi;
        src_lo = dst.lo;
        target ^= 1;
        s = 1;
    }
    for (; s + 1 < m; s += 2) {
        const bool last = s + 2 == m;
        DSpan dst = bufs[target];
        for (size_t p = 0; p < h2; ++p) {
            const size_t e0 = ntt::NttPlan::stageTwiddleIndex(s, p);
            const size_t e1 = e0 + h2;
            const size_t eb = ntt::NttPlan::stageTwiddlePair(s, p);
            Dw w0{tw_hi[e0], tw_lo[e0]}, w0q{twq_hi[e0], twq_lo[e0]};
            Dw w1{tw_hi[e1], tw_lo[e1]}, w1q{twq_hi[e1], twq_lo[e1]};
            Dw wb{tw_hi[eb], tw_lo[eb]}, wbq{twq_hi[eb], twq_lo[eb]};
            ntt::detail::forwardButterfly4LazyCore<A>(
                q, q2, src_hi, src_lo, dst.hi, dst.lo, w0, w0q, w1, w1q, wb,
                wbq, p, h, last, algo);
        }
        src_hi = dst.hi;
        src_lo = dst.lo;
        target ^= 1;
    }
}

template <class A>
void
checkedInverseRadix4(const ntt::NttPlan& plan, DConstSpan in, DSpan out,
                     DSpan scratch, MulAlgo algo)
{
    const size_t h = plan.half();
    const size_t h2 = h / 2;
    const int m = plan.logn();
    const Dw q = mod::toDw(plan.modulus().value());
    const Dw q2 = mod::shl1Dw(q);
    const uint64_t* tw_hi = plan.twiddleInvHi();
    const uint64_t* tw_lo = plan.twiddleInvLo();
    const uint64_t* twq_hi = plan.twiddleInvShoupHi();
    const uint64_t* twq_lo = plan.twiddleInvShoupLo();
    DSpan bufs[2] = {out, scratch};
    const int passes = (m + 1) / 2;
    int target = (passes % 2 == 1) ? 0 : 1;
    const uint64_t* src_hi = in.hi;
    const uint64_t* src_lo = in.lo;
    int s = m - 1;
    for (; s >= 1; s -= 2) {
        const int sl = s - 1;
        DSpan dst = bufs[target];
        for (size_t p = 0; p < h2; ++p) {
            const size_t e0 = ntt::NttPlan::stageTwiddleIndex(sl, p);
            const size_t e1 = e0 + h2;
            const size_t eb = ntt::NttPlan::stageTwiddlePair(sl, p);
            Dw w0{tw_hi[e0], tw_lo[e0]}, w0q{twq_hi[e0], twq_lo[e0]};
            Dw w1{tw_hi[e1], tw_lo[e1]}, w1q{twq_hi[e1], twq_lo[e1]};
            Dw wb{tw_hi[eb], tw_lo[eb]}, wbq{twq_hi[eb], twq_lo[eb]};
            ntt::detail::inverseButterfly4LazyCore<A>(
                q, q2, src_hi, src_lo, dst.hi, dst.lo, w0, w0q, w1, w1q, wb,
                wbq, p, h, algo);
        }
        src_hi = dst.hi;
        src_lo = dst.lo;
        target ^= 1;
    }
    if (s == 0) {
        DSpan dst = bufs[target];
        for (size_t j = 0; j < h; ++j) {
            ntt::detail::inverseButterflyLazyScalar<A>(
                q, q2, src_hi, src_lo, dst.hi, dst.lo, tw_hi, tw_lo, twq_hi,
                twq_lo, j, h, 0, algo);
        }
    }
    const Dw dn = mod::toDw(plan.nInv());
    const Dw dnq = mod::toDw(plan.nInvShoup());
    for (size_t i = 0; i < plan.n(); ++i) {
        ntt::detail::mulShoupCanonElementScalar<A>(
            q, out.hi, out.lo, out.hi, out.lo, dn, dnq, i, algo);
    }
}

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

using ntt::detail::negacyclicForwardScalarCore;
using ntt::detail::negacyclicInverseScalarCore;
using Tables = ntt::NegacyclicTables;

/**
 * The scalar backend's merged negacyclic forward loop instantiated with
 * policy A, checking the range contract after every stage: [0, 4q)
 * between stages, canonical out of the last one.
 */
template <class A>
void
checkedNegacyclicForward(const Tables& t, DConstSpan in, DSpan out)
{
    const Dw q = mod::toDw(t.plan().modulus().value());
    const int last = t.plan().logn() - 1;
    ResidueVector scratch(in.n);
    auto check = [&](DConstSpan dst, int s) {
        EXPECT_TRUE(allBelow(dst, s == last ? 1 : 4, q)) << "stage " << s;
    };
    negacyclicForwardScalarCore<1, A>(t, 1, in, out, scratch.span(), check);
}

/**
 * The merged inverse loop, checked: [0, 2q) between stages, canonical
 * out of the last (n^-1-folded) stage.
 */
template <class A>
void
checkedNegacyclicInverse(const Tables& t, DConstSpan in, DSpan out)
{
    const Dw q = mod::toDw(t.plan().modulus().value());
    ResidueVector scratch(in.n);
    auto check = [&](DConstSpan dst, int s) {
        EXPECT_TRUE(allBelow(dst, s == 0 ? 1 : 2, q)) << "stage " << s;
    };
    negacyclicInverseScalarCore<1, A>(t, 1, in, out, scratch.span(), check);
}

/** Checked merged forward and inverse vs the Scalar backend's engine. */
void
expectCheckedNegacyclic(const ntt::NttPrime& prime, size_t n, uint64_t seed)
{
    auto t = std::make_shared<const Tables>(prime, n);
    ntt::NegacyclicEngine engine(t, Backend::Scalar);
    auto in = randomResidues(n, t->plan().modulus().value(), seed);
    ResidueVector vin = ResidueVector::fromU128(in);
    ResidueVector want(n), checked(n), unchecked(n);

    engine.forward(vin.span(), want.span());
    checkedNegacyclicForward<CheckedLazyOps>(*t, vin.span(), checked.span());
    checkedNegacyclicForward<LazyOps>(*t, vin.span(), unchecked.span());
    EXPECT_EQ(want.toU128(), checked.toU128());
    EXPECT_EQ(want.toU128(), unchecked.toU128());

    // Inverse of the forward's output, then the full checked roundtrip.
    ResidueVector inv_want(n), back(n);
    engine.inverse(want.span(), inv_want.span());
    checkedNegacyclicInverse<CheckedLazyOps>(*t, want.span(), back.span());
    EXPECT_EQ(inv_want.toU128(), back.toU128());
    EXPECT_EQ(in, back.toU128());
}

class RangeContract : public ::testing::TestWithParam<size_t>
{
};

TEST_P(RangeContract, CheckedRadix2BitIdenticalToScalarBackend)
{
    const size_t n = GetParam();
    ntt::NttPlan plan(ntt::smallTestPrime(), n);
    auto in = randomResidues(n, plan.modulus().value(), 0x7001 + n);
    ResidueVector vin = ResidueVector::fromU128(in);
    ResidueVector want(n), ws(n), checked(n), cs(n), unchecked(n), us(n);

    ntt::forward(plan, Backend::Scalar, vin.span(), want.span(), ws.span(),
                 MulAlgo::Schoolbook, Reduction::ShoupLazy,
                 StageFusion::Radix2);
    checkedForwardRadix2<CheckedLazyOps>(plan, vin.span(), checked.span(),
                                         cs.span(), MulAlgo::Schoolbook);
    checkedForwardRadix2<LazyOps>(plan, vin.span(), unchecked.span(),
                                  us.span(), MulAlgo::Schoolbook);
    EXPECT_EQ(want.toU128(), checked.toU128());
    EXPECT_EQ(want.toU128(), unchecked.toU128());

    // Inverse over the forward's output: checked driver vs backend, and
    // a full checked roundtrip back to the input.
    ResidueVector inv_want(n), inv_checked(n);
    ntt::inverse(plan, Backend::Scalar, want.span(), inv_want.span(),
                 ws.span(), MulAlgo::Schoolbook, Reduction::ShoupLazy,
                 StageFusion::Radix2);
    checkedInverseRadix2<CheckedLazyOps>(plan, checked.span(),
                                         inv_checked.span(), cs.span(),
                                         MulAlgo::Schoolbook);
    EXPECT_EQ(inv_want.toU128(), inv_checked.toU128());
    EXPECT_EQ(in, inv_checked.toU128());
}

TEST_P(RangeContract, CheckedRadix4BitIdenticalToScalarBackend)
{
    const size_t n = GetParam();
    ntt::NttPlan plan(ntt::smallTestPrime(), n);
    auto in = randomResidues(n, plan.modulus().value(), 0x7002 + n);
    ResidueVector vin = ResidueVector::fromU128(in);
    ResidueVector want(n), ws(n), checked(n), cs(n);

    ntt::forward(plan, Backend::Scalar, vin.span(), want.span(), ws.span(),
                 MulAlgo::Schoolbook, Reduction::ShoupLazy,
                 StageFusion::Radix4);
    checkedForwardRadix4<CheckedLazyOps>(plan, vin.span(), checked.span(),
                                         cs.span(), MulAlgo::Schoolbook);
    EXPECT_EQ(want.toU128(), checked.toU128());

    ResidueVector inv_want(n), inv_checked(n);
    ntt::inverse(plan, Backend::Scalar, want.span(), inv_want.span(),
                 ws.span(), MulAlgo::Schoolbook, Reduction::ShoupLazy,
                 StageFusion::Radix4);
    checkedInverseRadix4<CheckedLazyOps>(plan, checked.span(),
                                         inv_checked.span(), cs.span(),
                                         MulAlgo::Schoolbook);
    EXPECT_EQ(inv_want.toU128(), inv_checked.toU128());
    EXPECT_EQ(in, inv_checked.toU128());
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
    // 2^128 by exactly the 4 reserved bits. Checked radix-2 and radix-4
    // must agree with the backend there too (Karatsuba quotient path).
    const size_t n = 64;
    ntt::NttPrime prime = ntt::findNttPrime(124, 10);
    ASSERT_EQ(prime.bits, 124);
    ntt::NttPlan plan(prime, n);
    auto in = randomResidues(n, plan.modulus().value(), 0x7004);
    ResidueVector vin = ResidueVector::fromU128(in);
    ResidueVector want(n), ws(n), checked(n), cs(n);

    for (MulAlgo algo : {MulAlgo::Schoolbook, MulAlgo::Karatsuba}) {
        ntt::forward(plan, Backend::Scalar, vin.span(), want.span(),
                     ws.span(), algo, Reduction::ShoupLazy,
                     StageFusion::Radix4);
        checkedForwardRadix4<CheckedLazyOps>(plan, vin.span(), checked.span(),
                                             cs.span(), algo);
        EXPECT_EQ(want.toU128(), checked.toU128());

        ntt::forward(plan, Backend::Scalar, vin.span(), want.span(),
                     ws.span(), algo, Reduction::ShoupLazy,
                     StageFusion::Radix2);
        checkedForwardRadix2<CheckedLazyOps>(plan, vin.span(), checked.span(),
                                             cs.span(), algo);
        EXPECT_EQ(want.toU128(), checked.toU128());
    }
    // The merged negacyclic forward holds [0, 4q) between stages: at 124
    // bits that is the whole 4-bit headroom.
    expectCheckedNegacyclic(prime, n, 0x7005);
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
