/**
 * @file
 * Split hi/lo layout tests: the aligned-allocation substrate, the span
 * aliasing contract of the staged negacyclic primitives, bit-identity
 * of the SoA-native pipeline against the retained U128 adapter path on
 * every compiled backend, and the steady-state guarantee the refactor
 * exists for — zero AoS<->SoA conversions and zero aligned heap
 * allocations per Engine op (layout::metrics() counters).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/layout_metrics.h"
#include "engine/engine.h"
#include "ntt/reference_ntt.h"
#include "test_util.h"

namespace mqx {
namespace {

using rns::Form;
using rns::RnsPolynomial;
using ProductList =
    std::vector<std::pair<const RnsPolynomial*, const RnsPolynomial*>>;

bool
isAligned(const void* p, size_t alignment = kResidueAlignment)
{
    return reinterpret_cast<uintptr_t>(p) % alignment == 0;
}

const rns::RnsBasis&
testBasis()
{
    // Four 40-bit primes with 2-adicity 8: negacyclic n <= 128.
    static rns::RnsBasis basis(40, 8, 4);
    return basis;
}

// ---------------------------------------------------------------------------
// Satellite: aligned allocation utility.
// ---------------------------------------------------------------------------

TEST(AlignedAlloc, RawAllocIsAlignedAndCounted)
{
    auto before = layout::metrics();
    void* p = alignedAlloc(1000);
    EXPECT_NE(p, nullptr);
    EXPECT_TRUE(isAligned(p));
    EXPECT_EQ(layout::metrics().aligned_allocs, before.aligned_allocs + 1);
    alignedFree(p);

    // Zero bytes: no allocation, no count.
    before = layout::metrics();
    EXPECT_EQ(alignedAlloc(0), nullptr);
    EXPECT_EQ(layout::metrics().aligned_allocs, before.aligned_allocs);
}

TEST(AlignedAlloc, VecIsAlignedAndZeroInitialized)
{
    AlignedVec<uint64_t> v(37); // deliberately not a multiple of 8
    ASSERT_EQ(v.size(), 37u);
    EXPECT_TRUE(isAligned(v.data()));
    for (uint64_t x : v)
        EXPECT_EQ(x, 0u);
}

TEST(AlignedAlloc, MoveAndSwapPreserveAlignmentWithoutReallocating)
{
    AlignedVec<uint64_t> a(64), b(16);
    for (size_t i = 0; i < a.size(); ++i)
        a[i] = i;
    const uint64_t* a_ptr = a.data();
    const uint64_t* b_ptr = b.data();

    auto before = layout::metrics();
    AlignedVec<uint64_t> moved(std::move(a));
    EXPECT_EQ(moved.data(), a_ptr); // buffer handed over, not copied
    EXPECT_TRUE(isAligned(moved.data()));
    EXPECT_EQ(moved.size(), 64u);
    EXPECT_EQ(moved[63], 63u);
    EXPECT_TRUE(a.empty());

    b = std::move(moved);
    EXPECT_EQ(b.data(), a_ptr);
    EXPECT_TRUE(isAligned(b.data()));

    AlignedVec<uint64_t> c;
    c.swap(b);
    EXPECT_EQ(c.data(), a_ptr);
    EXPECT_EQ(b.data(), nullptr);
    swap(b, c);
    EXPECT_EQ(b.data(), a_ptr);
    EXPECT_TRUE(isAligned(b.data()));
    EXPECT_EQ(b[1], 1u);
    // None of the moves/swaps touched the heap.
    EXPECT_EQ(layout::metrics().aligned_allocs, before.aligned_allocs);
    (void)b_ptr;
}

TEST(AlignedAlloc, CopyMakesAnIndependentAlignedBuffer)
{
    AlignedVec<uint64_t> a(8);
    a[0] = 42;
    AlignedVec<uint64_t> b(a);
    EXPECT_NE(b.data(), a.data());
    EXPECT_TRUE(isAligned(b.data()));
    b[0] = 7;
    EXPECT_EQ(a[0], 42u);
}

TEST(AlignedAlloc, ResidueVectorEnsureReallocatesOnlyOnSizeChange)
{
    ResidueVector rv(32);
    EXPECT_TRUE(isAligned(rv.span().hi));
    EXPECT_TRUE(isAligned(rv.span().lo));

    auto before = layout::metrics();
    rv.ensure(32); // same size: must be a no-op
    EXPECT_EQ(layout::metrics().aligned_allocs, before.aligned_allocs);
    rv.ensure(64); // growth reallocates both halves
    EXPECT_EQ(layout::metrics().aligned_allocs, before.aligned_allocs + 2);
    EXPECT_TRUE(isAligned(rv.span().hi));
    EXPECT_TRUE(isAligned(rv.span().lo));
}

TEST(AlignedAlloc, RnsChannelsAreAligned)
{
    RnsPolynomial p(testBasis(), 24);
    for (size_t i = 0; i < testBasis().size(); ++i) {
        EXPECT_TRUE(isAligned(p.channel(i).span().hi)) << "channel " << i;
        EXPECT_TRUE(isAligned(p.channel(i).span().lo)) << "channel " << i;
    }
}

// ---------------------------------------------------------------------------
// Adapter counters: every U128 round trip is visible to the metrics.
// ---------------------------------------------------------------------------

TEST(LayoutMetrics, U128AdaptersRoundTripAndAreCounted)
{
    auto values = randomResidues(16, ntt::smallTestPrime().q, 7);
    auto before = layout::metrics();
    ResidueVector rv = ResidueVector::fromU128(values);
    auto mid = layout::metrics();
    EXPECT_EQ(mid.from_u128, before.from_u128 + 1);
    EXPECT_EQ(rv.toU128(), values);
    EXPECT_EQ(layout::metrics().to_u128, mid.to_u128 + 1);
}

TEST(LayoutMetrics, AssignFromU128ReusesMatchingStorage)
{
    auto values = randomResidues(16, ntt::smallTestPrime().q, 8);
    ResidueVector rv(16);
    auto before = layout::metrics();
    rv.assignFromU128(values); // size matches: conversion, no allocation
    auto after = layout::metrics();
    EXPECT_EQ(after.from_u128, before.from_u128 + 1);
    EXPECT_EQ(after.aligned_allocs, before.aligned_allocs);
    EXPECT_EQ(rv.toU128(), values);
}

// ---------------------------------------------------------------------------
// Satellite: aliasing rules of the in-place span APIs.
// ---------------------------------------------------------------------------

class SpanAliasing : public testing::TestWithParam<Backend>
{
  protected:
    static constexpr size_t kN = 32;

    ntt::NegacyclicEngine
    makeEngine() const
    {
        return ntt::NegacyclicEngine(ntt::smallTestPrime(), kN, GetParam());
    }

    ResidueVector
    randomVec(uint64_t seed) const
    {
        return ResidueVector::fromU128(
            randomResidues(kN, ntt::smallTestPrime().q, seed));
    }
};

TEST_P(SpanAliasing, ExactAliasMatchesOutOfPlace)
{
    auto eng = makeEngine();
    ResidueVector f = randomVec(301), g = randomVec(302);
    ResidueVector out(kN);

    // forward: out-of-place vs in-place over a copy of f.
    eng.forward(f.span(), out.span());
    ResidueVector fi = f;
    eng.forward(fi.span(), fi.span());
    EXPECT_EQ(fi, out);

    // inverse round-trips in place.
    eng.inverse(fi.span(), fi.span());
    EXPECT_EQ(fi, f);

    // pointwiseMul: out aliasing either operand.
    ResidueVector fe = f, ge = g;
    eng.forward(fe.span(), fe.span());
    eng.forward(ge.span(), ge.span());
    eng.pointwiseMul(fe.span(), ge.span(), out.span());
    ResidueVector left = fe;
    eng.pointwiseMul(left.span(), ge.span(), left.span());
    EXPECT_EQ(left, out);
    ResidueVector right = ge;
    eng.pointwiseMul(fe.span(), right.span(), right.span());
    EXPECT_EQ(right, out);

    // polymul: out aliasing an input.
    eng.polymul(f.span(), g.span(), out.span());
    ResidueVector pf = f;
    eng.polymul(pf.span(), g.span(), pf.span());
    EXPECT_EQ(pf, out);
}

TEST_P(SpanAliasing, PartialOverlapIsRejected)
{
    auto eng = makeEngine();
    // One buffer of kN + 1 gives two full-length views shifted by one
    // element — the partial overlap the contract forbids.
    ResidueVector buf(kN + 1);
    DSpan base = buf.span();
    DSpan lo_view{base.hi, base.lo, kN};
    DSpan hi_view{base.hi + 1, base.lo + 1, kN};
    ResidueVector other(kN);

    EXPECT_THROW(eng.forward(lo_view, hi_view), InvalidArgument);
    EXPECT_THROW(eng.inverse(lo_view, hi_view), InvalidArgument);
    EXPECT_THROW(eng.pointwiseMul(lo_view, other.span(), hi_view),
                 InvalidArgument);
    EXPECT_THROW(eng.pointwiseMul(other.span(), lo_view, hi_view),
                 InvalidArgument);
    EXPECT_THROW(eng.pointwiseAccumulate(hi_view, lo_view, other.span()),
                 InvalidArgument);
    EXPECT_THROW(eng.polymul(lo_view, other.span(), hi_view),
                 InvalidArgument);
    EXPECT_THROW(eng.polymul(other.span(), lo_view, hi_view),
                 InvalidArgument);
}

TEST_P(SpanAliasing, CrossedHiLoViewsAreRejected)
{
    auto eng = makeEngine();
    ResidueVector buf(kN);
    DSpan s = buf.span();
    // Same storage with the halves crossed: shares memory with s but is
    // not the same span — must be treated as a partial overlap.
    DSpan crossed{s.lo, s.hi, kN};
    EXPECT_TRUE(spansPartiallyOverlap(s, crossed));
    EXPECT_THROW(eng.forward(s, crossed), InvalidArgument);
}

TEST_P(SpanAliasing, SizeMismatchIsRejected)
{
    auto eng = makeEngine();
    ResidueVector small(kN / 2), out(kN);
    EXPECT_THROW(eng.forward(small.span(), out.span()), InvalidArgument);
    EXPECT_THROW(eng.forward(out.span(), small.span()), InvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SpanAliasing,
                         testing::ValuesIn(test::availableCorrectBackends()),
                         test::backendParamName);

// ---------------------------------------------------------------------------
// Satellite: bit-identity of the SoA-native pipeline vs the retained
// U128 round-trip pipeline, on every compiled backend.
// ---------------------------------------------------------------------------

TEST(BitIdentity, SpanPipelineMatchesU128AdaptersAndReference)
{
    const size_t n = 64;
    const auto& prime = ntt::smallTestPrime();
    Modulus m(prime.q);
    auto f = randomResidues(n, prime.q, 501);
    auto g = randomResidues(n, prime.q, 502);
    auto reference = ntt::negacyclicConvolution(m, f, g);

    for (Backend be : test::availableCorrectBackends()) {
        SCOPED_TRACE(backendName(be));
        ntt::NegacyclicEngine eng(prime, n, be);

        // Retained adapter path (the seed pipeline: U128 in, U128 out).
        EXPECT_EQ(eng.polymulNegacyclic(f, g), reference);

        // Native path: split once at the boundary, stay SoA throughout.
        ResidueVector sf = ResidueVector::fromU128(f);
        ResidueVector sg = ResidueVector::fromU128(g);
        ResidueVector out(n);
        eng.polymul(sf.span(), sg.span(), out.span());
        EXPECT_EQ(out.toU128(), reference);

        // Staged primitives compose to the same bits.
        ResidueVector fe(n), ge(n);
        eng.forward(sf.span(), fe.span());
        eng.forward(sg.span(), ge.span());
        eng.pointwiseMul(fe.span(), ge.span(), fe.span());
        eng.inverse(fe.span(), fe.span());
        EXPECT_EQ(fe, out);
    }
}

TEST(BitIdentity, RnsNativeMatchesPerChannelAdapterRoundTrip)
{
    const auto& basis = testBasis();
    const size_t n = 64;
    auto a = rns::randomPolynomial(basis, n, 601);
    auto b = rns::randomPolynomial(basis, n, 602);

    for (Backend be : test::availableCorrectBackends()) {
        SCOPED_TRACE(backendName(be));
        engine::Engine serial(be, 1);
        auto native = serial.polymulNegacyclic(a, b);

        // The pre-refactor pipeline: repack every channel to U128s, run
        // the adapter overloads, repack the result.
        RnsPolynomial adapter(basis, n);
        for (size_t i = 0; i < basis.size(); ++i) {
            ntt::NegacyclicEngine eng(basis.prime(i), n, be);
            adapter.setChannelFromU128(
                i, eng.polymulNegacyclic(a.channelToU128(i),
                                         b.channelToU128(i)));
        }
        for (size_t i = 0; i < basis.size(); ++i)
            EXPECT_EQ(native.channel(i), adapter.channel(i))
                << "channel " << i;
    }
}

// ---------------------------------------------------------------------------
// Satellite: reference negacyclic convolution reuses its scratch.
// ---------------------------------------------------------------------------

TEST(ReferenceConvolution, IntoVariantMatchesAndReusesScratch)
{
    const size_t n = 64;
    Modulus m(ntt::smallTestPrime().q);
    auto f = randomResidues(n, ntt::smallTestPrime().q, 701);
    auto g = randomResidues(n, ntt::smallTestPrime().q, 702);

    std::vector<U128> out, full;
    ntt::negacyclicConvolutionInto(m, f, g, out, full);
    EXPECT_EQ(out, ntt::negacyclicConvolution(m, f, g));
    EXPECT_EQ(full.size(), 2 * n - 1);

    // A second call with the same scratch must not grow it again — the
    // loop-reuse fix (the naive path used to build a fresh 2n-1 product
    // vector every iteration).
    const size_t out_cap = out.capacity(), full_cap = full.capacity();
    const U128* full_ptr = full.data();
    ntt::negacyclicConvolutionInto(m, g, f, out, full);
    EXPECT_EQ(out.capacity(), out_cap);
    EXPECT_EQ(full.capacity(), full_cap);
    EXPECT_EQ(full.data(), full_ptr);
    EXPECT_EQ(out, ntt::negacyclicConvolution(m, g, f));

    // Output/scratch are resized before the inputs are read, so
    // aliasing them is rejected rather than silently zeroing an input.
    EXPECT_THROW(ntt::negacyclicConvolutionInto(m, f, g, out, out),
                 InvalidArgument);
    EXPECT_THROW(ntt::negacyclicConvolutionInto(m, f, g, f, full),
                 InvalidArgument);
    EXPECT_THROW(ntt::schoolbookPolyMulInto(m, f, g, f), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Workspace recycling: the pool behind the allocation-free dispatch.
// ---------------------------------------------------------------------------

TEST(WorkspacePool, LeasesReturnAndRebindWithoutReallocating)
{
    const size_t n = 32;
    auto tables_a =
        std::make_shared<const ntt::NegacyclicTables>(testBasis().prime(0), n);
    auto tables_b =
        std::make_shared<const ntt::NegacyclicTables>(testBasis().prime(1), n);

    ntt::NegacyclicWorkspacePool pool;
    EXPECT_EQ(pool.idleCount(), 0u);
    {
        auto l1 = pool.acquire(tables_a, Backend::Scalar);
        auto l2 = pool.acquire(tables_b, Backend::Scalar);
        EXPECT_EQ(pool.idleCount(), 0u); // both leased out
        EXPECT_EQ(&l1.engine().plan(), &tables_a->plan());
        EXPECT_EQ(&l2.engine().plan(), &tables_b->plan());
    }
    EXPECT_EQ(pool.idleCount(), 2u); // returned on lease destruction

    // Re-acquiring pops a recycled workspace and rebinds it to the new
    // channel's tables; the transform length is unchanged, so the work
    // buffers are reused as-is — no aligned allocation.
    auto before = layout::metrics();
    {
        auto lease = pool.acquire(tables_b, Backend::Scalar);
        EXPECT_EQ(pool.idleCount(), 1u);
        EXPECT_EQ(&lease.engine().plan(), &tables_b->plan());
    }
    EXPECT_EQ(pool.idleCount(), 2u);
    EXPECT_EQ(layout::metrics().aligned_allocs, before.aligned_allocs);
}

// ---------------------------------------------------------------------------
// The acceptance criterion: warmed-up steady-state kernel paths perform
// zero layout conversions and zero aligned heap allocations per call.
// ---------------------------------------------------------------------------

/** Run @p op once and return the layout-counter delta. */
template <typename Fn>
layout::Metrics
measure(Fn&& op)
{
    auto before = layout::metrics();
    op();
    return layout::delta(before, layout::metrics());
}

TEST(SteadyState, SerialKernelPathsAreConversionAndAllocationFree)
{
    const auto& basis = testBasis();
    const size_t n = 64;
    auto a = rns::randomPolynomial(basis, n, 801);
    auto b = rns::randomPolynomial(basis, n, 802);
    // threads = 1 runs tasks inline on the caller, in channel order.
    engine::Engine eng(Backend::Scalar, 1);

    RnsPolynomial sum(basis, n), prod(basis, n), poly(basis, n);
    RnsPolynomial ae(basis, n, Form::Eval), be_(basis, n, Form::Eval);
    RnsPolynomial emul(basis, n, Form::Eval), back(basis, n);
    RnsPolynomial fma(basis, n);
    ProductList products = {{&a, &b}, {&ae, &be_}, {&a, &be_}};

    // Warm every path twice: the plan cache fills, the workspace pool
    // grows to its peak, aux buffers get sized.
    for (int warm = 0; warm < 2; ++warm) {
        eng.addInto(a, b, sum);
        eng.mulInto(a, b, prod);
        eng.polymulNegacyclicInto(a, b, poly);
        eng.toEvalInto(a, ae);
        eng.toEvalInto(b, be_);
        eng.mulEvalInto(ae, be_, emul);
        eng.toCoeffInto(emul, back);
        eng.fmaBatchInto(products, fma);
    }

    auto expectFree = [](const layout::Metrics& d, const char* what) {
        EXPECT_EQ(d.conversions(), 0u) << what << ": layout conversions";
        EXPECT_EQ(d.aligned_allocs, 0u) << what << ": aligned allocations";
    };
    expectFree(measure([&] { eng.addInto(a, b, sum); }), "addInto");
    expectFree(measure([&] { eng.mulInto(a, b, prod); }), "mulInto");
    expectFree(measure([&] { eng.polymulNegacyclicInto(a, b, poly); }),
               "polymulNegacyclicInto");
    expectFree(measure([&] { eng.toEvalInto(a, ae); }), "toEvalInto");
    expectFree(measure([&] { eng.mulEvalInto(ae, be_, emul); }),
               "mulEvalInto");
    expectFree(measure([&] { eng.toCoeffInto(emul, back); }),
               "toCoeffInto");
    expectFree(measure([&] { eng.fmaBatchInto(products, fma); }),
               "fmaBatchInto");

    // The warmed pipeline still produces the right bits (the counters
    // must never be satisfied by skipping work).
    auto naive = eng.add(
        eng.add(eng.polymulNegacyclic(a, b),
                    eng.toCoeff(eng.mulEval(ae, be_))),
        eng.toCoeff(eng.mulEval(eng.toEval(a), be_)));
    for (size_t i = 0; i < basis.size(); ++i)
        EXPECT_EQ(fma.channel(i), naive.channel(i)) << "channel " << i;
    // Between calls every workspace is back in the engine's pool,
    // waiting to be rebound.
    EXPECT_GE(eng.workspacePool().idleCount(), 1u);

    // At least il all-Coeff products on the best backend: the staged
    // per-channel dot product on AVX-512, the batch kernels on AVX2.
    engine::Engine best(bestBackend(), 1);
    const ProductList wide(ntt::batchInterleave(best.backend()) + 1,
                           {&a, &b});
    RnsPolynomial fma_best(basis, n);
    for (int warm = 0; warm < 2; ++warm)
        best.fmaBatchInto(wide, fma_best);
    expectFree(measure([&] { best.fmaBatchInto(wide, fma_best); }),
               "fmaBatchInto on the best backend");
    auto want = eng.polymulNegacyclic(a, b);
    for (size_t p = 1; p < wide.size(); ++p)
        want = eng.add(want, eng.polymulNegacyclic(a, b));
    for (size_t i = 0; i < basis.size(); ++i)
        EXPECT_EQ(fma_best.channel(i), want.channel(i)) << "channel " << i;
}

TEST(SteadyState, ThreadedEnginePathPerformsZeroConversions)
{
    const auto& basis = testBasis();
    const size_t n = 64;
    auto a = rns::randomPolynomial(basis, n, 821);
    auto b = rns::randomPolynomial(basis, n, 822);
    engine::Engine eng(Backend::Scalar, 3);

    RnsPolynomial poly(basis, n), fma(basis, n);
    ProductList products = {{&a, &b}, {&b, &a}};
    for (int warm = 0; warm < 4; ++warm) {
        eng.polymulNegacyclicInto(a, b, poly);
        eng.fmaBatchInto(products, fma);
    }

    // Conversions are deterministic (none on the kernel path, whatever
    // the schedule); the workspace pool may still grow if a run reaches
    // a new peak concurrency, so only the conversion counters are
    // asserted for the threaded engine.
    auto d = measure([&] {
        for (int i = 0; i < 4; ++i) {
            eng.polymulNegacyclicInto(a, b, poly);
            eng.fmaBatchInto(products, fma);
        }
    });
    EXPECT_EQ(d.conversions(), 0u);
}

TEST(SteadyState, DestinationMayAliasOperands)
{
    const auto& basis = testBasis();
    const size_t n = 64;
    auto a = rns::randomPolynomial(basis, n, 831);
    auto b = rns::randomPolynomial(basis, n, 832);
    engine::Engine eng(Backend::Scalar, 1);

    auto sum = eng.add(a, b);
    auto aa = a;
    eng.addInto(aa, b, aa); // in-place over the first operand
    for (size_t i = 0; i < basis.size(); ++i)
        EXPECT_EQ(aa.channel(i), sum.channel(i));

    auto prod = eng.polymulNegacyclic(a, b);
    auto pa = a;
    eng.polymulNegacyclicInto(pa, b, pa);
    for (size_t i = 0; i < basis.size(); ++i)
        EXPECT_EQ(pa.channel(i), prod.channel(i));
}

} // namespace
} // namespace mqx
