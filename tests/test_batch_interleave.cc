/**
 * @file
 * Interleaved batch kernel tests (ROADMAP item 2): BatchLayout
 * geometry, pack/unpack round trips (odd lane counts, large n),
 * bit-identity of the batched transforms against the per-channel
 * kernels on every available backend and both reductions, Engine-level
 * batch routing against the serial oracle, fmaBatch word identity on
 * every backend (both channel paths, the dot product's fold limit),
 * argument-validation rejection, and the measured dispatch defaults
 * (StageFusion::Auto, ntt::fmaBatchKernelsWin).
 */
#include <gtest/gtest.h>

#include <cstdio>
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
                         ref_scratch.span(), Reduction::ShoupLazy,
                         StageFusion::Radix2);
            for (size_t e = 0; e < n; ++e) {
                ASSERT_EQ(out.at(layout.index(e, c)), ref.at(e))
                    << "lane " << c << " e " << e << " n " << n;
            }
            ntt::forward(plan, be, lanes[c].span(), ref.span(),
                         ref_scratch.span(), Reduction::Barrett,
                         StageFusion::Radix4);
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
                         ref_scratch.span(), Reduction::ShoupLazy,
                         StageFusion::Radix2);
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
    // Oracle: the sum of one-thread Scalar polymuls. k crosses the batch
    // tile (il = 4 or 8) and the IFMA dot product's 15-pair fold. Each k
    // runs an all-Coeff batch (the batch kernels where
    // ntt::fmaBatchKernelsWin picks them) and a mixed Coeff/Eval one
    // (always per channel), on a 40-bit and a 124-bit basis, on every
    // backend with a two-thread engine.
    static const rns::RnsBasis wide(124, 8, 2);
    const size_t n = 64;
    const size_t ks[] = {1, 7, 8, 9, 15, 16, 17, 31};
    engine::Engine oracle(Backend::Scalar, 1);
    uint64_t seed = 1000;
    for (const rns::RnsBasis* basis : {&testBasis(), &wide}) {
        SCOPED_TRACE(std::to_string(basis->modulus(0).bits()) + "-bit basis");
        std::vector<rns::RnsPolynomial> as, bs, as_eval, bs_eval, expect;
        for (size_t p = 0; p < 31; ++p) {
            as.push_back(rns::randomPolynomial(*basis, n, seed++));
            bs.push_back(rns::randomPolynomial(*basis, n, seed++));
            as_eval.push_back(oracle.toEval(as.back()));
            bs_eval.push_back(oracle.toEval(bs.back()));
            auto product = oracle.polymulNegacyclic(as[p], bs[p]);
            expect.push_back(p == 0 ? product
                                    : oracle.add(expect.back(), product));
        }
        for (Backend be : availableCorrectBackends()) {
            engine::Engine eng(be, 2);
            for (size_t k : ks) {
                ProductList coeff, mixed;
                for (size_t p = 0; p < k; ++p) {
                    coeff.emplace_back(&as[p], &bs[p]);
                    mixed.emplace_back(p % 3 == 1 ? &as_eval[p] : &as[p],
                                       p % 3 == 2 ? &bs_eval[p] : &bs[p]);
                }
                for (const ProductList* products : {&coeff, &mixed}) {
                    const auto got = eng.fmaBatch(*products);
                    for (size_t i = 0; i < basis->size(); ++i)
                        ASSERT_EQ(got.channel(i), expect[k - 1].channel(i))
                            << backendName(be) << " k=" << k
                            << (products == &coeff ? " coeff" : " mixed")
                            << " channel " << i;
                }
            }
        }
    }
}

TEST(EngineFma, AllMaxEvalOperandsAtTheFoldLimit)
{
    // Eval operands whose every word is q - 1 hand the dot product its
    // largest column sums: k = 15 fills one fold exactly, 16 and 30/31
    // need a second and third. Oracle: the Scalar engine's mulEval and
    // add in the transform domain, then one toCoeff.
    static const rns::RnsBasis wide(124, 8, 2);
    static const rns::RnsBasis narrow(60, 8, 2);
    const size_t n = 64;
    engine::Engine oracle(Backend::Scalar, 1);
    for (const rns::RnsBasis* basis : {&wide, &narrow}) {
        SCOPED_TRACE(std::to_string(basis->modulus(0).bits()) + "-bit basis");
        rns::RnsPolynomial top(*basis, n, rns::Form::Eval);
        for (size_t i = 0; i < basis->size(); ++i)
            top.setChannelFromU128(
                i, std::vector<U128>(n, basis->modulus(i).value() - U128{1}));
        for (size_t k : {15, 16, 30, 31}) {
            const ProductList products(k, {&top, &top});
            auto sum = oracle.mulEval(top, top);
            for (size_t p = 1; p < k; ++p)
                sum = oracle.add(sum, oracle.mulEval(top, top));
            const auto expect = oracle.toCoeff(sum);
            for (Backend be : availableCorrectBackends()) {
                engine::Engine eng(be, 1);
                const auto got = eng.fmaBatch(products);
                for (size_t i = 0; i < basis->size(); ++i)
                    ASSERT_EQ(got.channel(i), expect.channel(i))
                        << backendName(be) << " k=" << k << " channel " << i;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Measured dispatch defaults
// ---------------------------------------------------------------------

TEST(FmaPath, ResolvesMeasuredDefaults)
{
    // Alternated fmaChannel / fmaChannelBatched timings at n = 1024,
    // 4096 and 32768 (ntt.cc): the per-channel path with its lazily
    // reduced dot product wins on Scalar and AVX-512 at every n, the
    // batch kernels win on AVX2, Portable and the MQX tiers. The
    // printed lines are what CI logs.
    for (Backend be : {Backend::Scalar, Backend::Portable, Backend::Avx2,
                       Backend::Avx512, Backend::MqxEmulate,
                       Backend::MqxPisa}) {
        const bool batched = ntt::fmaBatchKernelsWin(be);
        EXPECT_EQ(batched, be != Backend::Scalar && be != Backend::Avx512)
            << backendName(be);
        std::printf("fmaBatch path: %s %s\n", backendName(be).c_str(),
                    batched ? "batched" : "per-channel");
    }
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
