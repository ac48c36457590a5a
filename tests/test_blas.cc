/**
 * @file
 * BLAS kernel tests: every available backend (including MQX emulation)
 * against the scalar oracle, over random and adversarial inputs and
 * multiple lengths (SIMD blocks + scalar tails). The AVX-512 tier's two
 * builds (emulated 64x64 and IFMA 52-bit-limb Barrett multiply) are
 * compared word for word through the blas_backends.h entry points.
 */
#include <gtest/gtest.h>

#include <cstdio>

#include "blas/blas.h"
#include "blas/blas_backends.h"
#include "core/cpu_features.h"
#include "engine/engine.h"
#include "ntt/ntt.h"
#include "ntt/prime.h"
#include "test_util.h"
#include "word64/word64.h"

namespace mqx {
namespace {

using test::availableCorrectBackends;
using test::backendParamName;

class BlasBackend : public testing::TestWithParam<Backend>
{
  protected:
    static constexpr uint64_t kSeed = 20240610;
};

std::vector<U128>
runVectorOp(blas::Op op, Backend be, const Modulus& m,
            const std::vector<U128>& a, const std::vector<U128>& b)
{
    ResidueVector va = ResidueVector::fromU128(a);
    ResidueVector vb = ResidueVector::fromU128(b);
    ResidueVector vc(a.size());
    if (op == blas::Op::Axpy) {
        // y starts as b; alpha = a[0].
        vc = ResidueVector::fromU128(b);
        blas::axpy(be, m, a[0], va.span(), vc.span());
    } else {
        blas::runOp(op, be, m, va.span(), vb.span(), vc.span());
    }
    return vc.toU128();
}

TEST_P(BlasBackend, MatchesScalarAcrossLengthsAndOps)
{
    Backend be = GetParam();
    const auto& prime = ntt::defaultBenchPrime();
    Modulus m(prime.q);
    // Lengths exercise full SIMD blocks, tails, and the empty vector.
    const size_t lengths[] = {1, 3, 7, 8, 9, 16, 31, 64, 100, 1024};
    const blas::Op ops[] = {blas::Op::VectorAdd, blas::Op::VectorSub,
                            blas::Op::VectorMul, blas::Op::Axpy};
    for (size_t len : lengths) {
        auto a = randomResidues(len, prime.q, kSeed ^ len);
        auto b = randomResidues(len, prime.q, kSeed + len);
        for (blas::Op op : ops) {
            auto expect = runVectorOp(op, Backend::Scalar, m, a, b);
            auto got = runVectorOp(op, be, m, a, b);
            ASSERT_EQ(got.size(), expect.size());
            for (size_t i = 0; i < len; ++i) {
                ASSERT_EQ(got[i], expect[i])
                    << blas::opName(op) << " len=" << len << " i=" << i
                    << " backend=" << backendName(be);
            }
        }
    }
}

TEST_P(BlasBackend, AdversarialOperands)
{
    Backend be = GetParam();
    const auto& prime = ntt::defaultBenchPrime();
    Modulus m(prime.q);
    U128 q1 = prime.q - U128{1};
    // Operands engineered to exercise every carry/borrow corner: the
    // Listing-3 equality corner (hi words tie), low-word-only borrows,
    // and zero lanes adjacent to maximal lanes.
    std::vector<U128> a = {q1,
                           U128{0},
                           q1,
                           U128::fromParts(prime.q.hi, 0),
                           U128::fromParts(0, ~0ull),
                           U128{1},
                           U128::fromParts(prime.q.hi, prime.q.lo - 1),
                           q1};
    std::vector<U128> b = {q1,
                           q1,
                           U128{0},
                           U128::fromParts(0, prime.q.lo),
                           U128::fromParts(prime.q.hi, 0),
                           q1,
                           U128{1},
                           U128{2}};
    for (blas::Op op : {blas::Op::VectorAdd, blas::Op::VectorSub,
                        blas::Op::VectorMul, blas::Op::Axpy}) {
        auto expect = runVectorOp(op, Backend::Scalar, m, a, b);
        auto got = runVectorOp(op, be, m, a, b);
        for (size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(got[i], expect[i])
                << blas::opName(op) << " lane " << i << " backend "
                << backendName(be);
        }
    }
}

TEST_P(BlasBackend, SmallModulusWorks)
{
    // Double-word kernels must stay correct when q fits one word.
    Backend be = GetParam();
    Modulus m(U128{0xfffffffb}); // 32-bit prime
    auto a = randomResidues(40, m.value(), 1);
    auto b = randomResidues(40, m.value(), 2);
    auto expect = runVectorOp(blas::Op::VectorMul, Backend::Scalar, m, a, b);
    auto got = runVectorOp(blas::Op::VectorMul, be, m, a, b);
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(got[i], expect[i]);
}

TEST_P(BlasBackend, GemvMatchesScalarDotProducts)
{
    Backend be = GetParam();
    const auto& prime = ntt::defaultBenchPrime();
    Modulus m(prime.q);
    for (auto [rows, cols] : {std::pair<size_t, size_t>{3, 5},
                              {8, 8},
                              {5, 17},
                              {16, 64}}) {
        auto mat_u = randomResidues(rows * cols, prime.q, rows * 31 + cols);
        auto x_u = randomResidues(cols, prime.q, cols);
        ResidueVector mat = ResidueVector::fromU128(mat_u);
        ResidueVector x = ResidueVector::fromU128(x_u);
        ResidueVector y(rows);
        blas::gemv(be, m, mat.span(), x.span(), y.span(), rows, cols);
        for (size_t r = 0; r < rows; ++r) {
            U128 acc{0};
            for (size_t j = 0; j < cols; ++j)
                acc = m.add(acc, m.mul(mat_u[r * cols + j], x_u[j]));
            ASSERT_EQ(y.at(r), acc)
                << "row " << r << " " << rows << "x" << cols << " "
                << backendName(be);
        }
    }
}

TEST_P(BlasBackend, VmulIsDiagonalGemv)
{
    // Section 2.3: "Point-wise vector multiplication can be interpreted
    // as a special case of gemv" — with a diagonal matrix.
    Backend be = GetParam();
    const auto& prime = ntt::defaultBenchPrime();
    Modulus m(prime.q);
    const size_t n = 24;
    auto d_u = randomResidues(n, prime.q, 71);
    auto x_u = randomResidues(n, prime.q, 72);
    std::vector<U128> mat_u(n * n, U128{0});
    for (size_t i = 0; i < n; ++i)
        mat_u[i * n + i] = d_u[i];
    ResidueVector mat = ResidueVector::fromU128(mat_u);
    ResidueVector d = ResidueVector::fromU128(d_u);
    ResidueVector x = ResidueVector::fromU128(x_u);
    ResidueVector via_gemv(n), via_vmul(n);
    blas::gemv(be, m, mat.span(), x.span(), via_gemv.span(), n, n);
    blas::vmul(be, m, d.span(), x.span(), via_vmul.span());
    EXPECT_EQ(via_gemv.toU128(), via_vmul.toU128());
}

/**
 * vdot against a scalar oracle, acc + sum a_j * b_j mod q, over k
 * pairs. Moduli of 30..124 bits put the fold's split point b = bits(q)
 * on both sides of the 52- and 104-bit limb edges and of the word edge;
 * k crosses the 15-pair fold limit of the IFMA kernel once and twice;
 * every length has SIMD blocks and a scalar tail. The all-(q - 1)
 * operands, with acc = q - 1, are the largest column sums a fold sees.
 * One modulus is even, the IFMA kernel's per-product path.
 */
TEST_P(BlasBackend, VdotMatchesScalarOracle)
{
    Backend be = GetParam();
    const U128 one = U128::fromParts(0, 1);
    SplitMix64 rng(0xd07);
    const size_t n = 37;
    for (int bits : {30, 52, 53, 64, 65, 104, 105, 124, -124}) {
        const int w = bits < 0 ? -bits : bits;
        const U128 top = one << (w - 1);
        U128 q = top + (rng.nextBelow(top) | one);
        if (bits < 0)
            q = q - one; // even
        const Modulus m(q);
        SCOPED_TRACE("q bits " + std::to_string(w) +
                     (bits < 0 ? " even" : " odd"));
        for (size_t k : {0, 1, 2, 7, 8, 9, 15, 16, 17, 30, 31}) {
            for (bool worst : {false, true}) {
                SCOPED_TRACE("k=" + std::to_string(k) +
                             (worst ? " all q-1" : " random"));
                auto draw = [&] {
                    std::vector<U128> v(n, q - one);
                    if (!worst)
                        for (auto& x : v)
                            x = rng.nextBelow(q);
                    return v;
                };
                std::vector<std::vector<U128>> au(k), bu(k);
                std::vector<ResidueVector> av, bv;
                std::vector<DConstSpan> as, bs;
                for (size_t j = 0; j < k; ++j) {
                    au[j] = draw();
                    bu[j] = draw();
                    av.push_back(ResidueVector::fromU128(au[j]));
                    bv.push_back(ResidueVector::fromU128(bu[j]));
                }
                for (size_t j = 0; j < k; ++j) {
                    as.push_back(av[j].span());
                    bs.push_back(bv[j].span());
                }
                const std::vector<U128> acc_u = draw();
                ResidueVector acc = ResidueVector::fromU128(acc_u);
                blas::vdot(be, m, as.data(), bs.data(), k, acc.span());
                for (size_t i = 0; i < n; ++i) {
                    U128 want = acc_u[i];
                    for (size_t j = 0; j < k; ++j)
                        want = m.add(want, m.mul(au[j][i], bu[j][i]));
                    ASSERT_EQ(acc.at(i), want) << "i=" << i;
                }
            }
        }
    }
}

TEST_P(BlasBackend, VdotAccumulatorMayAliasAnInput)
{
    Backend be = GetParam();
    const auto& prime = ntt::defaultBenchPrime();
    Modulus m(prime.q);
    const size_t n = 19;
    auto a_u = randomResidues(n, prime.q, 31);
    auto b_u = randomResidues(n, prime.q, 32);
    ResidueVector a = ResidueVector::fromU128(a_u);
    ResidueVector b = ResidueVector::fromU128(b_u);
    const DConstSpan as[] = {a.span(), b.span()};
    const DConstSpan bs[] = {b.span(), b.span()};
    blas::vdot(be, m, as, bs, 2, a.span()); // a += a*b + b*b
    for (size_t i = 0; i < n; ++i) {
        const U128 want = m.add(m.add(a_u[i], m.mul(a_u[i], b_u[i])),
                                m.mul(b_u[i], b_u[i]));
        ASSERT_EQ(a.at(i), want) << "i=" << i;
    }
}

TEST(BlasErrors, GemvShapeValidation)
{
    const auto& prime = ntt::smallTestPrime();
    Modulus m(prime.q);
    ResidueVector mat(12), x(4), y(3), bad(5);
    EXPECT_NO_THROW(blas::gemv(Backend::Scalar, m, mat.span(), x.span(),
                               y.span(), 3, 4));
    EXPECT_THROW(blas::gemv(Backend::Scalar, m, mat.span(), x.span(),
                            y.span(), 4, 4),
                 InvalidArgument);
    EXPECT_THROW(blas::gemv(Backend::Scalar, m, mat.span(), bad.span(),
                            y.span(), 3, 4),
                 InvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BlasBackend,
                         testing::ValuesIn(test::availableCorrectBackends()),
                         test::backendParamName);

TEST(BlasErrors, LengthMismatchThrows)
{
    const auto& prime = ntt::smallTestPrime();
    Modulus m(prime.q);
    ResidueVector a(8), b(4), c(8);
    EXPECT_THROW(blas::vadd(Backend::Scalar, m, a.span(), b.span(), c.span()),
                 InvalidArgument);
    const DConstSpan as[] = {a.span()}, bs[] = {b.span()};
    for (Backend be : availableCorrectBackends())
        EXPECT_THROW(blas::vdot(be, m, as, bs, 1, c.span()), InvalidArgument)
            << backendName(be);
}

TEST(BlasErrors, PisaBackendProducesWrongResultsByDesign)
{
    // Document the PISA contract: it is a timing vehicle, not a
    // correctness backend. (If PISA ever accidentally computed correct
    // values, the proxies would not be exercising shorter sequences.)
    if (!backendAvailable(Backend::MqxPisa))
        GTEST_SKIP() << "MQX/AVX-512 not available";
    const auto& prime = ntt::defaultBenchPrime();
    Modulus m(prime.q);
    auto a = randomResidues(64, prime.q, 5);
    auto b = randomResidues(64, prime.q, 6);
    auto expect = runVectorOp(blas::Op::VectorMul, Backend::Scalar, m, a, b);
    auto got = runVectorOp(blas::Op::VectorMul, Backend::MqxPisa, m, a, b);
    int mismatches = 0;
    for (size_t i = 0; i < a.size(); ++i)
        mismatches += got[i] == expect[i] ? 0 : 1;
    EXPECT_GT(mismatches, 0);
}

TEST(BlasErrors, UnavailableBackendsThrow)
{
    // Every dispatcher (BLAS, NTT, word64) and the Engine reject a
    // backend this host or build cannot run.
    std::vector<Backend> unavailable;
    std::vector<Backend> all = correctBackends();
    all.push_back(Backend::MqxPisa);
    for (Backend be : all)
        if (!backendAvailable(be))
            unavailable.push_back(be);
    if (unavailable.empty())
        GTEST_SKIP() << "every backend is available on this host";
    const auto& prime = ntt::smallTestPrime();
    Modulus m(prime.q);
    ResidueVector a(8), b(8), c(8), mat(64);
    const DConstSpan as[] = {a.span()}, bs[] = {b.span()};
    ntt::NttPlan plan(prime, 8);
    w64::Ntt64Plan plan64(w64::findNttPrime64(58, 18), 8);
    std::vector<uint64_t> in64(8), out64(8), scr64(8);
    for (Backend be : unavailable) {
        SCOPED_TRACE(backendName(be));
        EXPECT_THROW(blas::vadd(be, m, a.span(), b.span(), c.span()),
                     BackendUnavailable);
        EXPECT_THROW(blas::vsub(be, m, a.span(), b.span(), c.span()),
                     BackendUnavailable);
        EXPECT_THROW(blas::vmul(be, m, a.span(), b.span(), c.span()),
                     BackendUnavailable);
        EXPECT_THROW(blas::vdot(be, m, as, bs, 1, c.span()),
                     BackendUnavailable);
        EXPECT_THROW(blas::axpy(be, m, U128{1}, a.span(), c.span()),
                     BackendUnavailable);
        EXPECT_THROW(
            blas::gemv(be, m, mat.span(), a.span(), c.span(), 8, 8),
            BackendUnavailable);
        EXPECT_THROW(ntt::forward(plan, be, a.span(), c.span(), b.span()),
                     BackendUnavailable);
        EXPECT_THROW(ntt::inverse(plan, be, a.span(), c.span(), b.span()),
                     BackendUnavailable);
        EXPECT_THROW(w64::forward64(plan64, be, in64.data(), out64.data(),
                                    scr64.data()),
                     BackendUnavailable);
        EXPECT_THROW(engine::Engine(be, 1), BackendUnavailable);
    }
}

TEST(BlasIfma, DispatchFollowsCpuid)
{
    // The line CI greps to log which AVX-512 BLAS multiply ran, with the
    // CPUID bits the IFMA kernels need (IFMA, and VBMI2 for their limb
    // splits).
    std::printf("AVX-512 BLAS multiply: %s (ifma %d, vbmi2 %d)\n",
                avx512Kernel(), int{hostCpuFeatures().avx512ifma},
                int{hostCpuFeatures().avx512vbmi2});
    if (!backendAvailable(Backend::Avx512)) {
        EXPECT_THROW(blas::backends::tierKernels(Backend::Avx512),
                     BackendUnavailable);
        return;
    }
#if MQX_BUILD_AVX512
    const auto vmul = blas::backends::tierKernels(Backend::Avx512).vmul;
#if MQX_BUILD_AVX512_IFMA
    if (avx512Ifma()) {
        EXPECT_TRUE(vmul == &blas::backends::vmulAvx512Ifma);
        return;
    }
#endif
    EXPECT_FALSE(avx512Ifma());
    EXPECT_TRUE(vmul == &blas::backends::vmulAvx512);
#endif
}

TEST(BlasIfma, WordIdenticalToEmulatedAvx512)
{
    // The IFMA Barrett multiply reproduces the emulated one step for
    // step, so every word must agree for ANY a, b < 2^128 — including
    // operands above q — and in-range products must match Scalar. The
    // widths put the Barrett shifts b - 1 and b + 1 on both sides of
    // the 52- and 104-bit limb edges.
#if MQX_BUILD_AVX512_IFMA
    if (!avx512Ifma())
        GTEST_SKIP() << "host lacks AVX-512 IFMA (or XCR0 ZMM state): "
                        "Backend::Avx512 runs the emulated multiply only";
    namespace be = blas::backends;
    const U128 one = U128::fromParts(0, 1);
    const U128 p52 = one << 52, p104 = one << 104;
    SplitMix64 rng(0xb1a5);
    for (int bits : {30, 52, 53, 64, 65, 104, 105, 124}) {
        const U128 top = one << (bits - 1);
        const U128 q = top + (rng.nextBelow(top) | one); // odd, bits wide
        const Modulus m(q);
        SCOPED_TRACE("q bits " + std::to_string(m.bits()));
        ASSERT_EQ(m.bits(), bits);
        std::vector<U128> ops = {U128{},     one,        q - one,
                                 p52 - one,  p52 + one,  p104 - one,
                                 p104 + one, rng.nextBelow(q),
                                 rng.nextU128()};
        std::vector<U128> a, b;
        for (const U128& x : ops)
            for (const U128& y : ops) {
                a.push_back(x);
                b.push_back(y);
            }
        for (int i = 0; i < 64; ++i) {
            a.push_back(rng.nextBelow(q));
            b.push_back(i % 2 ? rng.nextBelow(q) : rng.nextU128());
        }
        a.resize(a.size() + 3, q - one); // a scalar tail
        b.resize(a.size(), q - one);
        const size_t n = a.size();
        ResidueVector va = ResidueVector::fromU128(a);
        ResidueVector vb = ResidueVector::fromU128(b);

        ResidueVector ci(n), scalar(n);
        be::vmulAvx512Ifma(m, va.span(), vb.span(), ci.span());
        blas::vmul(Backend::Scalar, m, va.span(), vb.span(), scalar.span());
        ResidueVector ce(n);
        be::vmulAvx512(m, va.span(), vb.span(), ce.span());
        EXPECT_EQ(ce.toU128(), ci.toU128()) << "vmul";
        for (size_t i = 0; i < n; ++i) {
            if (a[i] < q && b[i] < q) {
                ASSERT_EQ(ci.at(i), scalar.at(i))
                    << "a=" << test::str(a[i]) << " b=" << test::str(b[i]);
            }
        }

        // vdot takes canonical operands: 17 copies of the in-range
        // pairs cross the IFMA kernel's 15-pair fold.
        std::vector<U128> ca, cb;
        for (size_t i = 0; i < n; ++i) {
            if (a[i] < q && b[i] < q) {
                ca.push_back(a[i]);
                cb.push_back(b[i]);
            }
        }
        ResidueVector da = ResidueVector::fromU128(ca);
        ResidueVector db = ResidueVector::fromU128(cb);
        const std::vector<DConstSpan> das(17, da.span()), dbs(17, db.span());
        ResidueVector de = db, di = db, ds = db;
        be::vdotAvx512(m, das.data(), dbs.data(), 17, de.span());
        be::vdotAvx512Ifma(m, das.data(), dbs.data(), 17, di.span());
        blas::vdot(Backend::Scalar, m, das.data(), dbs.data(), 17, ds.span());
        EXPECT_EQ(de.toU128(), di.toU128()) << "vdot";
        EXPECT_EQ(ds.toU128(), di.toU128()) << "vdot vs Scalar";

        for (const U128& alpha : ops) {
            ResidueVector ye = vb, yi = vb;
            be::axpyAvx512(m, alpha, va.span(), ye.span());
            be::axpyAvx512Ifma(m, alpha, va.span(), yi.span());
            ASSERT_EQ(ye.toU128(), yi.toU128())
                << "axpy alpha=" << test::str(alpha);
        }

        const size_t rows = 7, cols = n / rows; // 21: blocks + a tail
        ResidueVector mat = ResidueVector::fromU128(
            std::vector<U128>(a.begin(), a.begin() + rows * cols));
        ResidueVector x = ResidueVector::fromU128(
            std::vector<U128>(b.begin(), b.begin() + cols));
        ResidueVector ge(rows), gi(rows);
        be::gemvAvx512(m, mat.span(), x.span(), ge.span(), rows, cols);
        be::gemvAvx512Ifma(m, mat.span(), x.span(), gi.span(), rows, cols);
        EXPECT_EQ(ge.toU128(), gi.toU128()) << "gemv";
    }
#else
    GTEST_SKIP() << "IFMA build of the AVX-512 tier not compiled in";
#endif
}

} // namespace
} // namespace mqx
