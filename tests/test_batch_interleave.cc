/**
 * @file
 * Interleaved batch kernel tests (ROADMAP item 2): BatchLayout
 * geometry, pack/unpack round trips (odd lane counts, large n),
 * bit-identity of the batched transforms against the per-channel
 * kernels on every available backend and both reductions, Engine-level
 * batch routing against the serial oracle, argument-validation
 * rejection, and the StageFusion::Auto dispatch thresholds.
 */
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/batch_layout.h"
#include "engine/engine.h"
#include "mod/dword_ops.h"
#include "test_util.h"

namespace mqx {
namespace {

using test::availableCorrectBackends;
using ProductList = std::vector<
    std::pair<const rns::RnsPolynomial*, const rns::RnsPolynomial*>>;

const ntt::NttPrime&
testPrime()
{
    return ntt::smallTestPrime();
}

ResidueVector
randomLanes(size_t count, uint64_t seed)
{
    return ResidueVector::fromU128(randomResidues(count, testPrime().q, seed));
}

// ---------------------------------------------------------------------
// Layout geometry
// ---------------------------------------------------------------------

TEST(BatchLayout, IndexMapsLanesIntoCacheLineTiles)
{
    const BatchLayout layout(64, 8, 4);
    // Lane 0 owns the first 8-word tile, lane 1 the next, and so on.
    EXPECT_EQ(layout.index(0, 0), 0u);
    EXPECT_EQ(layout.index(7, 0), 7u);
    EXPECT_EQ(layout.index(0, 1), 8u);
    EXPECT_EQ(layout.index(0, 3), 24u);
    // The next tile row starts after il lanes' worth of tiles.
    EXPECT_EQ(layout.index(8, 0), 32u);
    // Lanes beyond il live in the next group of il * n words.
    EXPECT_EQ(layout.index(0, 4), 4u * 64u);
    // Consecutive elements of one lane are contiguous within a tile, so
    // vector loads of <= 8 elements never cross a lane boundary.
    for (size_t e = 0; e < 64; ++e) {
        if (e % 8 != 7) {
            EXPECT_EQ(layout.index(e + 1, 2), layout.index(e, 2) + 1);
        }
    }
    EXPECT_EQ(layout.groups(), 2u);
    EXPECT_EQ(layout.paddedLanes(), 8u);
    EXPECT_EQ(layout.totalWords(), 8u * 64u);
}

TEST(BatchLayout, PackUnpackRoundTripsOddLaneCount)
{
    // 11 lanes at il = 4: two full groups plus a padded one.
    const size_t n = 64, lanes = 11, il = 4;
    const BatchLayout layout(n, lanes, il);
    std::vector<ResidueVector> src, dst;
    std::vector<DConstSpan> src_spans;
    std::vector<DSpan> dst_spans;
    for (size_t c = 0; c < lanes; ++c) {
        src.push_back(randomLanes(n, 100 + c));
        dst.emplace_back(n);
    }
    for (auto& v : src)
        src_spans.push_back(v.span());
    for (auto& v : dst)
        dst_spans.push_back(v.span());

    ResidueVector packed(layout.totalWords());
    batch::packLanes(layout, src_spans.data(), lanes, packed.span());
    // Padding lanes must be zero so kernels can sweep them blindly.
    for (size_t c = lanes; c < layout.paddedLanes(); ++c) {
        for (size_t e = 0; e < n; ++e)
            EXPECT_EQ(packed.at(layout.index(e, c)), U128{0});
    }
    batch::unpackLanes(layout, packed.span(), dst_spans.data(), lanes);
    for (size_t c = 0; c < lanes; ++c)
        EXPECT_EQ(src[c], dst[c]) << "lane " << c;
}

TEST(BatchLayout, PackUnpackRoundTripsLargeN)
{
    // A real FHE size; the layout itself is size-agnostic.
    const size_t n = 1u << 16, lanes = 3, il = 8;
    const BatchLayout layout(n, lanes, il);
    std::vector<ResidueVector> src, dst;
    std::vector<DConstSpan> src_spans;
    std::vector<DSpan> dst_spans;
    for (size_t c = 0; c < lanes; ++c) {
        src.push_back(randomLanes(n, 200 + c));
        dst.emplace_back(n);
    }
    for (auto& v : src)
        src_spans.push_back(v.span());
    for (auto& v : dst)
        dst_spans.push_back(v.span());
    ResidueVector packed(layout.totalWords());
    batch::packLanes(layout, src_spans.data(), lanes, packed.span());
    batch::unpackLanes(layout, packed.span(), dst_spans.data(), lanes);
    for (size_t c = 0; c < lanes; ++c)
        EXPECT_EQ(src[c], dst[c]) << "lane " << c;
}

TEST(BatchLayout, RejectsBadGeometryAndOverlap)
{
    EXPECT_THROW(BatchLayout(12, 4, 4), InvalidArgument); // n % 8 != 0
    EXPECT_THROW(BatchLayout(0, 4, 4), InvalidArgument);
    EXPECT_THROW(BatchLayout(64, 0, 4), InvalidArgument);
    EXPECT_THROW(BatchLayout(64, 4, 0), InvalidArgument);

    const BatchLayout layout(64, 4, 4);
    ResidueVector a(64), packed(layout.totalWords()), small(32);
    DConstSpan srcs[4] = {a.span(), a.span(), a.span(), a.span()};
    // Wrong destination size.
    EXPECT_THROW(batch::packLanes(layout, srcs, 4, small.span()),
                 InvalidArgument);
    // Wrong lane count.
    EXPECT_THROW(batch::packLanes(layout, srcs, 3, packed.span()),
                 InvalidArgument);
    // A source lane overlapping the packed destination must be caught.
    DSpan pspan = packed.span();
    DConstSpan overlapping[4] = {
        DConstSpan{pspan.hi, pspan.lo, 64}, a.span(), a.span(), a.span()};
    EXPECT_THROW(batch::packLanes(layout, overlapping, 4, pspan),
                 InvalidArgument);
    // Same for unpack destinations.
    DSpan dsts[4] = {DSpan{pspan.hi + 8, pspan.lo + 8, 64}, a.span(),
                     a.span(), a.span()};
    EXPECT_THROW(batch::unpackLanes(layout, packed.span(), dsts, 4),
                 InvalidArgument);
}

// ---------------------------------------------------------------------
// Batched transforms vs the per-channel kernels
// ---------------------------------------------------------------------

class BatchNttBackend : public testing::TestWithParam<Backend>
{
};

INSTANTIATE_TEST_SUITE_P(AllBackends, BatchNttBackend,
                         testing::ValuesIn(availableCorrectBackends()),
                         test::backendParamName);

TEST_P(BatchNttBackend, ForwardBatchBitIdenticalPerLane)
{
    const Backend be = GetParam();
    // The backend's own width, plus the narrow widths whose lane loop
    // stages on the heap (il < 3) or exactly fills its scratch (il = 3).
    std::vector<std::pair<size_t, size_t>> shapes;
    for (size_t il : {size_t{1}, size_t{2}, size_t{3},
                      ntt::batchInterleave(be)}) {
        for (size_t n : {size_t{16}, size_t{256}})
            shapes.emplace_back(il, n);
    }
    for (const auto& [il, n] : shapes) {
        SCOPED_TRACE("il=" + std::to_string(il));
        const ntt::NttPlan plan(testPrime(), n);
        ASSERT_TRUE(ntt::batchSupported(plan));
        const BatchLayout layout(n, il, il);

        std::vector<ResidueVector> lanes;
        std::vector<DConstSpan> spans;
        for (size_t c = 0; c < il; ++c)
            lanes.push_back(randomLanes(n, 300 + 10 * n + c));
        for (auto& v : lanes)
            spans.push_back(v.span());
        ResidueVector in(layout.totalWords()), out(layout.totalWords()),
            scratch(layout.totalWords());
        batch::packLanes(layout, spans.data(), il, in.span());
        ntt::forwardBatch(plan, be, il, in.span(), out.span(), scratch.span());

        // Every lane must be word-identical to the per-channel forward —
        // under BOTH reductions and both fusion shapes, which are
        // themselves bit-identical by contract.
        ResidueVector ref(n), ref_scratch(n);
        for (size_t c = 0; c < il; ++c) {
            ntt::forward(plan, be, lanes[c].span(), ref.span(),
                         ref_scratch.span(), MulAlgo::Schoolbook,
                         Reduction::ShoupLazy, StageFusion::Radix2);
            for (size_t e = 0; e < n; ++e) {
                ASSERT_EQ(out.at(layout.index(e, c)), ref.at(e))
                    << "lane " << c << " e " << e << " n " << n;
            }
            ntt::forward(plan, be, lanes[c].span(), ref.span(),
                         ref_scratch.span(), MulAlgo::Schoolbook,
                         Reduction::Barrett, StageFusion::Radix4);
            for (size_t e = 0; e < n; ++e) {
                ASSERT_EQ(out.at(layout.index(e, c)), ref.at(e))
                    << "barrett lane " << c << " e " << e;
            }
        }

        // Round trip through the batched inverse restores every lane.
        ResidueVector back(layout.totalWords());
        ntt::inverseBatch(plan, be, il, out.span(), back.span(),
                          scratch.span());
        ResidueVector ref_inv(n);
        for (size_t c = 0; c < il; ++c) {
            ntt::forward(plan, be, lanes[c].span(), ref.span(),
                         ref_scratch.span());
            ntt::inverse(plan, be, ref.span(), ref_inv.span(),
                         ref_scratch.span(), MulAlgo::Schoolbook,
                         Reduction::ShoupLazy, StageFusion::Radix2);
            for (size_t e = 0; e < n; ++e) {
                ASSERT_EQ(back.at(layout.index(e, c)), ref_inv.at(e))
                    << "inverse lane " << c << " e " << e;
                ASSERT_EQ(back.at(layout.index(e, c)), lanes[c].at(e))
                    << "roundtrip lane " << c << " e " << e;
            }
        }
    }
}

TEST(BatchNtt, ValidatesArguments)
{
    const Backend be = Backend::Scalar;
    const size_t il = ntt::batchInterleave(be);
    const ntt::NttPlan plan(testPrime(), 64);
    ResidueVector in(il * 64), out(il * 64), scratch(il * 64);

    // Batch-ineligible (too small) plans are rejected.
    const ntt::NttPlan tiny(testPrime(), 8);
    EXPECT_FALSE(ntt::batchSupported(tiny));
    ResidueVector t8(il * 8);
    EXPECT_THROW(ntt::forwardBatch(tiny, be, il, t8.span(), t8.span(),
                                   t8.span()),
                 InvalidArgument);

    // Wrong buffer sizes.
    ResidueVector short_buf(il * 64 - 8);
    EXPECT_THROW(ntt::forwardBatch(plan, be, il, in.span(), short_buf.span(),
                                   scratch.span()),
                 InvalidArgument);
    // Overlapping batch spans.
    EXPECT_THROW(ntt::forwardBatch(plan, be, il, in.span(), in.span(),
                                   scratch.span()),
                 InvalidArgument);
    DSpan s = out.span();
    DSpan shifted{s.hi + 8, s.lo + 8, s.n - 8};
    EXPECT_THROW(ntt::inverseBatch(ntt::NttPlan(testPrime(), 56), be, il,
                                   out.span(), shifted, scratch.span()),
                 InvalidArgument);
}

// ---------------------------------------------------------------------
// Engine routing vs the serial oracle
// ---------------------------------------------------------------------

const rns::RnsBasis&
testBasis()
{
    // Four 40-bit primes with 2-adicity 8: supports negacyclic n <= 128.
    static rns::RnsBasis basis(40, 8, 4);
    return basis;
}

TEST(EngineBatch, PolymulBatchMatchesSerialOracle)
{
    // Every shape the batch task list takes: whole tiles plus a
    // remainder (interleaved and per-channel tasks), fewer products than
    // one tile (per-channel tasks only), and a mixed batch over two
    // bases with different channel counts at two lengths.
    const auto& basis = testBasis();
    static rns::RnsBasis small_basis(50, 8, 2);
    engine::Engine eng;
    engine::Engine serial(eng.backend(), 1);
    const size_t il = ntt::batchInterleave(eng.backend());
    struct Operand
    {
        const rns::RnsBasis* basis;
        size_t n;
    };
    std::vector<Operand> tiles_and_rem(il + 3, Operand{&basis, 64});
    std::vector<Operand> below_tile(il - 1, Operand{&basis, 64});
    std::vector<Operand> mixed{{&basis, 64}, {&small_basis, 32},
                               {&basis, 32}, {&small_basis, 64},
                               {&basis, 64}};
    uint64_t seed = 600;
    for (const auto& shape : {tiles_and_rem, below_tile, mixed}) {
        SCOPED_TRACE(shape.size());
        std::vector<rns::RnsPolynomial> as, bs;
        for (const Operand& op : shape) {
            as.push_back(rns::randomPolynomial(*op.basis, op.n, seed++));
            bs.push_back(rns::randomPolynomial(*op.basis, op.n, seed++));
        }
        ProductList products;
        for (size_t p = 0; p < shape.size(); ++p)
            products.emplace_back(&as[p], &bs[p]);

        auto results = eng.polymulNegacyclicBatch(products);
        ASSERT_EQ(results.size(), shape.size());
        for (size_t p = 0; p < shape.size(); ++p) {
            auto expect = serial.polymulNegacyclic(as[p], bs[p]);
            ASSERT_EQ(&results[p].basis(), &expect.basis());
            ASSERT_EQ(results[p].n(), expect.n());
            for (size_t i = 0; i < expect.basis().size(); ++i) {
                ASSERT_EQ(results[p].channel(i), expect.channel(i))
                    << "product " << p << " channel " << i;
            }
        }
    }
}

TEST(EngineBatch, FmaBatchMatchesSerialOracle)
{
    const auto& basis = testBasis();
    const size_t n = 64;
    engine::Engine eng;
    const size_t k = ntt::batchInterleave(eng.backend()) + 2;
    std::vector<rns::RnsPolynomial> as, bs;
    for (size_t p = 0; p < k; ++p) {
        as.push_back(rns::randomPolynomial(basis, n, 800 + p));
        bs.push_back(rns::randomPolynomial(basis, n, 900 + p));
    }
    ProductList products;
    for (size_t p = 0; p < k; ++p)
        products.emplace_back(&as[p], &bs[p]);

    auto got = eng.fmaBatch(products);
    // Oracle: the sum of one-thread polymuls. A one-thread fmaBatch of
    // this many products takes the same interleaved path, so it cannot
    // be the reference.
    engine::Engine serial(eng.backend(), 1);
    auto expect = serial.polymulNegacyclic(as[0], bs[0]);
    for (size_t p = 1; p < k; ++p)
        expect = serial.add(expect, serial.polymulNegacyclic(as[p], bs[p]));
    for (size_t i = 0; i < basis.size(); ++i)
        ASSERT_EQ(got.channel(i), expect.channel(i)) << "channel " << i;

    // A mixed-form batch is ineligible for interleaving and must fall
    // back to the per-product path — still bit-identical (the Eval
    // operand holds the same polynomial, so the sum is unchanged).
    auto ea = eng.toEval(as[0]);
    ProductList mixed = products;
    mixed[0].first = &ea;
    rns::RnsPolynomial got_mixed(basis, n);
    eng.fmaBatchInto(mixed, got_mixed);
    for (size_t i = 0; i < basis.size(); ++i)
        ASSERT_EQ(got_mixed.channel(i), expect.channel(i));
}

// ---------------------------------------------------------------------
// StageFusion::Auto thresholds
// ---------------------------------------------------------------------

TEST(StageFusionAuto, ResolvesMeasuredThresholds)
{
    using ntt::resolveStageFusion;
    // Scalar and AVX2 fuse at every size, Portable never does
    // (BENCH_ntt.json radix4/radix2 medians).
    for (size_t n : {size_t{16}, size_t{4096}, size_t{65536}, size_t{1}
                     << 17}) {
        for (Backend be : {Backend::Scalar, Backend::Avx2})
            EXPECT_EQ(resolveStageFusion(be, n, StageFusion::Auto),
                      StageFusion::Radix4)
                << backendName(be) << " n=" << n;
        EXPECT_EQ(resolveStageFusion(Backend::Portable, n, StageFusion::Auto),
                  StageFusion::Radix2)
            << "n=" << n;
    }
    // AVX-512 runs radix-2 for 1024 <= n < 16384 and fuses outside that
    // band.
    for (size_t n : {size_t{256}, size_t{512}, size_t{16384}, size_t{32768},
                     size_t{65536}})
        EXPECT_EQ(resolveStageFusion(Backend::Avx512, n, StageFusion::Auto),
                  StageFusion::Radix4)
            << "n=" << n;
    for (size_t n : {size_t{1024}, size_t{4096}, size_t{8192}})
        EXPECT_EQ(resolveStageFusion(Backend::Avx512, n, StageFusion::Auto),
                  StageFusion::Radix2)
            << "n=" << n;
    // The MQX tiers keep radix-2 below n = 65536 and fuse at and above
    // it.
    for (Backend be : {Backend::MqxEmulate, Backend::MqxPisa}) {
        EXPECT_EQ(resolveStageFusion(be, 16384, StageFusion::Auto),
                  StageFusion::Radix2)
            << backendName(be);
        EXPECT_EQ(resolveStageFusion(be, 65536, StageFusion::Auto),
                  StageFusion::Radix4)
            << backendName(be);
    }
    // Explicit shapes pass through untouched on every backend.
    EXPECT_EQ(resolveStageFusion(Backend::Portable, 64, StageFusion::Radix4),
              StageFusion::Radix4);
    EXPECT_EQ(resolveStageFusion(Backend::Scalar, 1u << 17,
                                 StageFusion::Radix2),
              StageFusion::Radix2);
}

} // namespace
} // namespace mqx
