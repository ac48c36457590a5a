/**
 * @file
 * Evaluation-form RNS polynomial tests: form tracking and validation,
 * toEval/toCoeff round trips, mulEval against the full polymul
 * pipeline, the fused fmaBatch dot product (bit-identical to the naive
 * sum of products, on one thread and across a pool), and the
 * allocation-light decomposeInto.
 */
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "engine/engine.h"
#include "test_util.h"

namespace mqx {
namespace {

using rns::Form;
using rns::RnsPolynomial;

void
expectIdentical(const RnsPolynomial& a, const RnsPolynomial& b)
{
    ASSERT_EQ(&a.basis(), &b.basis());
    ASSERT_EQ(a.n(), b.n());
    ASSERT_EQ(a.form(), b.form());
    for (size_t i = 0; i < a.basis().size(); ++i)
        ASSERT_EQ(a.channel(i), b.channel(i)) << "channel " << i;
}

const rns::RnsBasis&
testBasis()
{
    // Four 40-bit primes with 2-adicity 8: supports negacyclic n <= 128.
    static rns::RnsBasis basis(40, 8, 4);
    return basis;
}

using ProductList =
    std::vector<std::pair<const RnsPolynomial*, const RnsPolynomial*>>;

TEST(Form, DefaultsAndTagging)
{
    const auto& basis = testBasis();
    RnsPolynomial p(basis, 8);
    EXPECT_EQ(p.form(), Form::Coeff);
    RnsPolynomial e(basis, 8, Form::Eval);
    EXPECT_EQ(e.form(), Form::Eval);
    EXPECT_STREQ(rns::formName(Form::Coeff), "coeff");
    EXPECT_STREQ(rns::formName(Form::Eval), "eval");
}

TEST(Form, ToEvalRoundTripsOnBothPaths)
{
    const auto& basis = testBasis();
    auto a = rns::randomPolynomial(basis, 64, 21);

    engine::Engine serial(Backend::Scalar, 1);
    auto eval = serial.toEval(a);
    EXPECT_EQ(eval.form(), Form::Eval);
    auto back = serial.toCoeff(eval);
    EXPECT_EQ(back.form(), Form::Coeff);
    expectIdentical(back, a);

    engine::Engine eng(Backend::Scalar, 3);
    auto eng_eval = eng.toEval(a);
    expectIdentical(eng_eval, eval); // threaded matches serial bit-for-bit
    expectIdentical(eng.toCoeff(eng_eval), a);
}

TEST(Form, MulEvalMatchesPolymulBitIdentically)
{
    const auto& basis = testBasis();
    const size_t n = 64;
    auto a = rns::randomPolynomial(basis, n, 31);
    auto b = rns::randomPolynomial(basis, n, 32);

    for (Backend be : test::availableCorrectBackends()) {
        SCOPED_TRACE(backendName(be));
        engine::Engine serial(be, 1);
        auto reference = serial.polymulNegacyclic(a, b);

        // Staged: coeff -> eval, point-wise product, eval -> coeff.
        auto staged = serial.toCoeff(serial.mulEval(serial.toEval(a),
                                                    serial.toEval(b)));
        expectIdentical(staged, reference);

        engine::Engine eng(be, 4);
        auto eng_staged =
            eng.toCoeff(eng.mulEval(eng.toEval(a), eng.toEval(b)));
        expectIdentical(eng_staged, reference);
    }
}

TEST(Form, AddPreservesFormAndCommutesWithEval)
{
    const auto& basis = testBasis();
    auto a = rns::randomPolynomial(basis, 32, 41);
    auto b = rns::randomPolynomial(basis, 32, 42);
    engine::Engine eng(Backend::Scalar, 1);

    // The NTT is linear: toEval(a + b) == toEval(a) + toEval(b).
    auto sum_then_eval = eng.toEval(eng.add(a, b));
    auto eval_then_sum = eng.add(eng.toEval(a), eng.toEval(b));
    EXPECT_EQ(sum_then_eval.form(), Form::Eval);
    expectIdentical(sum_then_eval, eval_then_sum);
}

TEST(Form, MismatchesRejected)
{
    const auto& basis = testBasis();
    auto a = rns::randomPolynomial(basis, 32, 51);
    engine::Engine eng(Backend::Scalar, 2);
    auto eval = eng.toEval(a);

    // mulEval demands Eval operands; conversions demand the right
    // source form; mixed-form add/mul are rejected.
    EXPECT_THROW(eng.mulEval(a, a), InvalidArgument);
    EXPECT_THROW(eng.mulEval(eval, a), InvalidArgument);
    EXPECT_THROW(eng.toEval(eval), InvalidArgument);
    EXPECT_THROW(eng.toCoeff(a), InvalidArgument);
    EXPECT_THROW(eng.add(a, eval), InvalidArgument);
    EXPECT_THROW(eng.mul(a, eval), InvalidArgument);
    EXPECT_THROW(eng.polymulNegacyclic(eval, eval), InvalidArgument);
    EXPECT_THROW(eng.polymulNegacyclic(a, eval), InvalidArgument);

    // Eval-form channels are NOT coefficients; reconstruction refuses.
    EXPECT_THROW(eval.toCoefficients(), InvalidArgument);
}

TEST(FmaBatch, MatchesNaiveSumBitIdentically)
{
    const auto& basis = testBasis();
    const size_t n = 64;
    const size_t k = 5;
    std::vector<RnsPolynomial> as, bs;
    for (size_t i = 0; i < k; ++i) {
        as.push_back(rns::randomPolynomial(basis, n, 300 + i));
        bs.push_back(rns::randomPolynomial(basis, n, 400 + i));
    }
    ProductList products;
    for (size_t i = 0; i < k; ++i)
        products.push_back({&as[i], &bs[i]});

    for (Backend be : test::availableCorrectBackends()) {
        SCOPED_TRACE(backendName(be));
        engine::Engine serial(be, 1);
        // Naive: k full polymuls, then k - 1 adds.
        auto naive = serial.polymulNegacyclic(as[0], bs[0]);
        for (size_t i = 1; i < k; ++i)
            naive = serial.add(naive, serial.polymulNegacyclic(as[i], bs[i]));

        auto fused = serial.fmaBatch(products);
        EXPECT_EQ(fused.form(), Form::Coeff);
        expectIdentical(fused, naive);

        engine::Engine eng(be, 4);
        expectIdentical(eng.fmaBatch(products), naive);
    }
}

TEST(FmaBatch, MixedFormOperandsMatchCoeffOnly)
{
    const auto& basis = testBasis();
    const size_t n = 64;
    engine::Engine serial(Backend::Scalar, 1);
    auto a0 = rns::randomPolynomial(basis, n, 61);
    auto b0 = rns::randomPolynomial(basis, n, 62);
    auto a1 = rns::randomPolynomial(basis, n, 63);
    auto b1 = rns::randomPolynomial(basis, n, 64);

    auto reference = serial.fmaBatch({{&a0, &b0}, {&a1, &b1}});

    // Eval-resident operands (e.g. a key that never leaves the
    // transform domain) must fuse to the same bits.
    auto ea0 = serial.toEval(a0);
    auto eb1 = serial.toEval(b1);
    expectIdentical(serial.fmaBatch({{&ea0, &b0}, {&a1, &eb1}}), reference);

    engine::Engine eng(Backend::Scalar, 3);
    expectIdentical(eng.fmaBatch({{&ea0, &b0}, {&a1, &eb1}}), reference);
}

TEST(FmaBatch, EdgeCasesAndValidation)
{
    const auto& basis = testBasis();
    rns::RnsBasis other(40, 8, 2);
    engine::Engine eng(Backend::Scalar, 2);
    auto a = rns::randomPolynomial(basis, 32, 71);
    auto shorter = rns::randomPolynomial(basis, 16, 72);
    auto foreign = rns::randomPolynomial(other, 32, 73);

    EXPECT_THROW(eng.fmaBatch({}), InvalidArgument);
    EXPECT_THROW(eng.fmaBatch({{&a, nullptr}}), InvalidArgument);
    EXPECT_THROW(eng.fmaBatch({{nullptr, &a}}), InvalidArgument);
    EXPECT_THROW(eng.fmaBatch({{&a, &shorter}}), InvalidArgument);
    EXPECT_THROW(eng.fmaBatch({{&a, &a}, {&shorter, &shorter}}),
                 InvalidArgument);
    EXPECT_THROW(eng.fmaBatch({{&a, &foreign}}), InvalidArgument);
    EXPECT_THROW(eng.fmaBatch({{&foreign, &foreign}, {&a, &a}}),
                 InvalidArgument);

    // A single-pair batch degenerates to one polymul, bit-identically.
    expectIdentical(eng.fmaBatch({{&a, &a}}), eng.polymulNegacyclic(a, a));
}

TEST(Form, ExceptionPropagationThroughPoolTasks)
{
    const auto& basis = testBasis();
    engine::Engine eng(Backend::Scalar, 4);
    engine::Engine serial(Backend::Scalar, 1);

    // n = 0 / non-power-of-two lengths cannot support an NTT; the plan
    // build throws inside a pool task (or inline on the caller with one
    // thread) and the exception must surface to the caller either way
    // (zero-length edge).
    auto zero_len = RnsPolynomial(basis, 0);
    auto odd_len = rns::randomPolynomial(basis, 12, 81);
    EXPECT_THROW(eng.toEval(zero_len), InvalidArgument);
    EXPECT_THROW(serial.toEval(zero_len), InvalidArgument);
    EXPECT_THROW(eng.toEval(odd_len), InvalidArgument);
    EXPECT_THROW(serial.toEval(odd_len), InvalidArgument);
    ProductList zero_batch{{&zero_len, &zero_len}};
    EXPECT_THROW(eng.fmaBatch(zero_batch), InvalidArgument);
    EXPECT_THROW(serial.fmaBatch(zero_batch), InvalidArgument);

    // n too large for the primes' 2-adicity (8 -> negacyclic n <= 128).
    auto too_big = rns::randomPolynomial(basis, 256, 82);
    EXPECT_THROW(eng.toEval(too_big), InvalidArgument);
    EXPECT_THROW(serial.toEval(too_big), InvalidArgument);
}

TEST(Decompose, DecomposeIntoMatchesBigIntegerDivision)
{
    rns::RnsBasis basis(62, 16, 4);
    SplitMix64 rng(909);
    std::vector<U128> out;
    for (int i = 0; i < 200; ++i) {
        // Random x < Q via limb stuffing mod Q.
        BigUInt x;
        for (int limb = 0; limb < 5; ++limb)
            x = (x << 64) + BigUInt{rng.next()};
        x = x % basis.bigModulus();
        basis.decomposeInto(x, out);
        ASSERT_EQ(out.size(), basis.size());
        for (size_t c = 0; c < basis.size(); ++c) {
            // Oracle: plain big-integer remainder.
            BigUInt qi = BigUInt::fromU128(basis.prime(c).q);
            EXPECT_EQ(out[c], (x % qi).toU128());
        }
        EXPECT_EQ(basis.reconstruct(out), x);
    }
    // Edges: zero, Q - 1, and out-of-range.
    basis.decomposeInto(BigUInt{}, out);
    for (const auto& r : out)
        EXPECT_EQ(r, U128{0});
    EXPECT_THROW(basis.decomposeInto(basis.bigModulus(), out),
                 InvalidArgument);
}

} // namespace
} // namespace mqx
