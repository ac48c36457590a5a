/**
 * @file
 * Shoup precomputed-quotient multiplication and the lazy-reduction
 * range discipline, on both word widths:
 *
 *  - W = uint32_t: every operation is checked against a perfect native
 *    __int128 oracle, including randomized moduli.
 *  - W = uint64_t: checked against the BigUInt oracle and against the
 *    Barrett mulModSchool/mulModKaratsuba paths.
 *
 * Boundary coverage: operands in the redundant range [q, 2q) and up to
 * 4q, w in {0, 1, q-1}, and q at the 124-bit Barrett/lazy ceiling. The
 * lazy-range invariants are asserted directly: mulModShoup stays below
 * 2q for any operand below 4q, and the butterfly transients stay below
 * 4q (never exceeded) for inputs below 2q.
 *
 * The vector multiplies of the AVX-512 tier (emulated 64x64 and IFMA
 * 52-bit limbs) are checked word for word against mod::mulModShoup at
 * every limb boundary, through the ntt_backends.h entry points. The
 * vector lazy add/sub helpers run in both forms (adc/sbb carry chain
 * and headroom) on every non-MQX ISA compiled in, at the carry and
 * borrow edges, against each other and a U128 oracle.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>

#include "bigint/biguint.h"
#include "core/residue_span.h"
#include "mod/modulus.h"
#include "ntt/ntt.h"
#include "ntt/ntt_backends.h"
#include "ntt/prime.h"
#include "simd/lazy_probe.h"
#include "test_util.h"

namespace mqx {
namespace {

using mod::DW;

// ---------------------------------------------------------------------
// Generic helpers over the word type
// ---------------------------------------------------------------------

template <typename W>
DW<W>
makeDw(uint64_t hi, uint64_t lo)
{
    if constexpr (sizeof(W) == 8) {
        return DW<W>{hi, lo};
    } else {
        // 64-bit value split into two 32-bit words (value = lo).
        (void)hi;
        return DW<W>{static_cast<W>(lo >> 32), static_cast<W>(lo)};
    }
}

template <typename W>
BigUInt
toBig(const DW<W>& v)
{
    constexpr int kb = mod::WordOps<W>::kBits;
    return (BigUInt{static_cast<uint64_t>(v.hi)} << kb) +
           BigUInt{static_cast<uint64_t>(v.lo)};
}

template <typename W>
DW<W>
fromBig(const BigUInt& v)
{
    constexpr int kb = mod::WordOps<W>::kBits;
    U128 u = v.toU128();
    DW<W> r;
    if constexpr (kb == 64) {
        r.hi = u.hi;
        r.lo = u.lo;
    } else {
        r.hi = static_cast<W>(u.lo >> kb);
        r.lo = static_cast<W>(u.lo);
    }
    return r;
}

/** Oracle: (a * w) mod q via BigUInt. */
template <typename W>
DW<W>
oracleMulMod(const DW<W>& a, const DW<W>& w, const DW<W>& q)
{
    return fromBig<W>((toBig(a) * toBig(w)) % toBig(q));
}

/** r mod q for r < 2q: one conditional subtract. */
template <typename W>
DW<W>
canonical(const DW<W>& r, const DW<W>& q)
{
    return mod::condSubDw(r, q);
}

/**
 * Core property pack for one (a, w, q) triple: the Shoup result is
 * below 2q, congruent to a*w, and — once canonicalized — equal to the
 * BigUInt oracle (and for canonical operands, to Barrett).
 */
template <typename W>
void
checkShoupTriple(const DW<W>& a, const DW<W>& w, const DW<W>& q)
{
    const DW<W> wq = mod::shoupPrecompute(w, q);
    DW<W> q2;
    mod::addDw(q, q, q2);

    DW<W> r = mod::mulModShoup(a, w, wq, q);
    // Lazy-range invariant: result strictly below 2q.
    ASSERT_TRUE(r < q2) << "result escaped [0, 2q)";
    EXPECT_EQ(canonical(r, q), oracleMulMod(a, w, q));
}

template <typename W>
void
runRandomizedSuite(const DW<W>& q, uint64_t seed, int trials)
{
    SplitMix64 rng(seed);
    constexpr int kb = mod::WordOps<W>::kBits;
    BigUInt qb = toBig(q);
    BigUInt q2b = qb + qb;
    BigUInt q4b = q2b + q2b;

    auto randBelow = [&](const BigUInt& bound) {
        // Rejection-free: draw 2*kb random bits and reduce (bias is
        // irrelevant for property testing).
        U128 u = U128::fromParts(rng.next(), rng.next());
        BigUInt v = (BigUInt::fromU128(u) % bound);
        return fromBig<W>(v);
    };

    for (int t = 0; t < trials; ++t) {
        DW<W> w = randBelow(qb);
        // Operand regimes: canonical, redundant [q, 2q), and the full
        // lazy range [0, 4q) the butterflies feed in.
        DW<W> a_can = randBelow(qb);
        DW<W> a_red = fromBig<W>(qb + (toBig(randBelow(qb)) % qb));
        DW<W> a_lazy = randBelow(q4b);
        checkShoupTriple(a_can, w, q);
        checkShoupTriple(a_red, w, q);
        checkShoupTriple(a_lazy, w, q);
    }

    // Boundary multiplicands.
    DW<W> zero{};
    DW<W> one = makeDw<W>(0, 1);
    DW<W> qm1 = fromBig<W>(qb - BigUInt{1});
    DW<W> a_edge = fromBig<W>(q4b - BigUInt{1}); // 4q - 1, lazy ceiling
    for (const DW<W>& w : {zero, one, qm1}) {
        checkShoupTriple(zero, w, q);
        checkShoupTriple(one, w, q);
        checkShoupTriple(qm1, w, q);
        checkShoupTriple(a_edge, w, q);
    }
    (void)kb;
}

// ---------------------------------------------------------------------
// uint32_t instantiation: native-__int128 cross-check on top
// ---------------------------------------------------------------------

#if MQX_HAVE_INT128
TEST(Shoup32, MatchesNativeOracleRandomModuli)
{
    SplitMix64 rng(0x5170);
    for (int round = 0; round < 20; ++round) {
        // Random odd modulus in [2, 2^60): the uint32 double-word
        // Barrett ceiling (2w - 4 = 60 bits).
        uint64_t qv = (rng.next() & ((uint64_t{1} << 60) - 1)) | 1;
        if (qv < 3)
            qv = 3;
        DW<uint32_t> q = makeDw<uint32_t>(0, qv);
        uint64_t q2 = 2 * qv;
        for (int t = 0; t < 50; ++t) {
            uint64_t wv = rng.next() % qv;
            uint64_t av = rng.next() % (4 * qv);
            DW<uint32_t> w = makeDw<uint32_t>(0, wv);
            DW<uint32_t> a = makeDw<uint32_t>(0, av);
            DW<uint32_t> wq = mod::shoupPrecompute(w, q);
            // Companion matches the native division.
            unsigned __int128 wq_native =
                (static_cast<unsigned __int128>(wv) << 64) / qv;
            EXPECT_EQ((static_cast<uint64_t>(wq.hi) << 32) | wq.lo,
                      static_cast<uint64_t>(wq_native));
            DW<uint32_t> r = mod::mulModShoup(a, w, wq, q);
            uint64_t rv = (static_cast<uint64_t>(r.hi) << 32) | r.lo;
            ASSERT_LT(rv, q2) << "lazy range escaped";
            unsigned __int128 expect =
                static_cast<unsigned __int128>(av) * wv % qv;
            EXPECT_EQ(rv % qv, static_cast<uint64_t>(expect));
        }
    }
}
#endif

TEST(Shoup32, RandomizedAgainstBigUIntOracle)
{
    // A 60-bit prime-ish modulus (oddness suffices for the identity).
    runRandomizedSuite(makeDw<uint32_t>(0, 0xFFFFFFFFFFFFFC5ull), 0xA5A5,
                      60);
    // Small modulus.
    runRandomizedSuite(makeDw<uint32_t>(0, 17), 0x1111, 40);
}

// ---------------------------------------------------------------------
// uint64_t instantiation: BigUInt oracle + Barrett agreement
// ---------------------------------------------------------------------

TEST(Shoup64, RandomizedAgainstOracleSmallPrime)
{
    runRandomizedSuite(mod::toDw(ntt::smallTestPrime().q), 0xBEEF, 60);
}

TEST(Shoup64, RandomizedAgainstOracleNear124BitCeiling)
{
    // q just below 2^124: the Barrett ceiling doubles as the lazy
    // ceiling (4q < 2^126).
    const auto& prime = ntt::defaultBenchPrime();
    ASSERT_EQ(prime.bits, 124);
    runRandomizedSuite(mod::toDw(prime.q), 0xD00D, 60);
}

TEST(Shoup64, AgreesWithBarrettOnCanonicalOperands)
{
    const auto& prime = ntt::defaultBenchPrime();
    Modulus m(prime.q);
    const auto& br = m.barrett();
    const DW<uint64_t> q = mod::toDw(prime.q);
    SplitMix64 rng(0xCAFE);
    for (int t = 0; t < 200; ++t) {
        DW<uint64_t> a = mod::toDw(rng.nextBelow(prime.q));
        DW<uint64_t> w = mod::toDw(rng.nextBelow(prime.q));
        DW<uint64_t> wq = mod::shoupPrecompute(w, q);
        DW<uint64_t> shoup =
            canonical(mod::mulModShoup(a, w, wq, q), q);
        EXPECT_EQ(shoup, mod::mulModSchool(a, w, br));
        EXPECT_EQ(shoup, mod::mulModKaratsuba(a, w, br));
    }
}

TEST(Shoup64, LazyButterflyRangeInvariants)
{
    // Simulate the exact forward/inverse lazy butterfly dataflow and
    // assert [0, 4q) is never exceeded pre-reduction and [0, 2q) holds
    // post-reduction — the contract the kernels rely on between stages.
    const auto& prime = ntt::defaultBenchPrime();
    const DW<uint64_t> q = mod::toDw(prime.q);
    DW<uint64_t> q2, q4;
    mod::addDw(q, q, q2);
    mod::addDw(q2, q2, q4);
    BigUInt q2b = toBig(q2);

    SplitMix64 rng(0xFEED);
    auto randBelow2q = [&] {
        U128 u = U128::fromParts(rng.next(), rng.next());
        return fromBig<uint64_t>(BigUInt::fromU128(u) % q2b);
    };

    for (int t = 0; t < 500; ++t) {
        DW<uint64_t> a = randBelow2q();
        DW<uint64_t> b = randBelow2q();
        DW<uint64_t> w = mod::toDw(rng.nextBelow(prime.q));
        DW<uint64_t> wq = mod::shoupPrecompute(w, q);

        // Forward: u' = a + b < 4q; u = condSub(u', 2q) in [0, 2q);
        // d = a - b + 2q in (0, 4q); v = shoup(d, w) in [0, 2q).
        DW<uint64_t> sum;
        uint64_t carry = mod::addDw(a, b, sum);
        ASSERT_EQ(carry, 0u);
        ASSERT_TRUE(sum < q4) << "forward add transient escaped [0, 4q)";
        DW<uint64_t> u = mod::condSubDw(sum, q2);
        ASSERT_TRUE(u < q2);
        DW<uint64_t> d;
        mod::addDw(a, q2, d);
        mod::subDw(d, b, d);
        ASSERT_TRUE(d < q4) << "lazy difference escaped [0, 4q)";
        DW<uint64_t> v = mod::mulModShoup(d, w, wq, q);
        ASSERT_TRUE(v < q2);

        // Inverse: t = shoup(v) in [0, 2q); x0 = u + t < 4q -> [0, 2q);
        // x1 = u - t + 2q in (0, 4q) -> [0, 2q).
        DW<uint64_t> ti = mod::mulModShoup(v, w, wq, q);
        ASSERT_TRUE(ti < q2);
        DW<uint64_t> x0;
        mod::addDw(u, ti, x0);
        ASSERT_TRUE(x0 < q4);
        x0 = mod::condSubDw(x0, q2);
        ASSERT_TRUE(x0 < q2);
        DW<uint64_t> x1;
        mod::addDw(u, q2, x1);
        mod::subDw(x1, ti, x1);
        ASSERT_TRUE(x1 < q4);
        x1 = mod::condSubDw(x1, q2);
        ASSERT_TRUE(x1 < q2);
    }
}

TEST(Shoup64, PrecomputeRejectsWNotBelowQ)
{
    const DW<uint64_t> q = mod::toDw(ntt::smallTestPrime().q);
    EXPECT_THROW(mod::shoupPrecompute(q, q), InvalidArgument);
    DW<uint64_t> big;
    mod::addDw(q, q, big);
    EXPECT_THROW(mod::shoupPrecompute(big, q), InvalidArgument);
    EXPECT_NO_THROW(mod::shoupPrecompute(DW<uint64_t>{}, q));
}

TEST(ShoupCompanion, MatchesBigUIntOracle)
{
    // Modulus::shoupCompanion (word arithmetic) against the BigUInt
    // oracle floor(w * 2^128 / q), on NTT primes across the word sizes.
    for (int bits : {33, 52, 64, 65, 100, 123, 124}) {
        const ntt::NttPrime prime = ntt::findNttPrime(bits, 16);
        const Modulus m(prime.q);
        const DW<uint64_t> q = mod::toDw(prime.q);
        const U128 half = prime.q >> 1;
        std::vector<U128> ws = {U128{0},         U128{1},
                                U128{2},         half,
                                half + U128{1},  prime.q - U128{2},
                                prime.q - U128{1}};
        SplitMix64 rng(0x5C0u + static_cast<uint64_t>(bits));
        for (int t = 0; t < 2000; ++t)
            ws.push_back(rng.nextBelow(prime.q));
        for (const U128& w : ws) {
            ASSERT_EQ(m.shoupCompanion(w),
                      mod::fromDw(mod::shoupPrecompute(mod::toDw(w), q)))
                << bits << "-bit q, w=" << toString(w);
        }
        EXPECT_THROW(m.shoupCompanion(prime.q), InvalidArgument);
        EXPECT_THROW(m.shoupCompanion(prime.q + prime.q), InvalidArgument);
    }
    // Even q has no inverse mod 2^128.
    const Modulus even(U128::fromParts(1, 0));
    EXPECT_THROW(even.shoupCompanion(U128{1}), InvalidArgument);
}

// ---------------------------------------------------------------------
// AVX-512 vector Shoup multiplies: emulated and IFMA, word for word
// ---------------------------------------------------------------------

using LazyShoupFn =
    std::function<void(const Modulus&, DConstSpan, DConstSpan, DConstSpan,
                       DSpan)>;

/** Every vector Shoup multiply this host can run, by name. */
std::vector<std::pair<const char*, LazyShoupFn>>
availableVectorShoups()
{
    std::vector<std::pair<const char*, LazyShoupFn>> out;
#if MQX_BUILD_AVX512
    if (backendAvailable(Backend::Avx512))
        out.emplace_back("avx512-emulated", ntt::backends::vmulShoupLazyAvx512);
#endif
#if MQX_BUILD_AVX512_IFMA
    if (avx512Ifma())
        out.emplace_back("avx512-ifma", ntt::backends::vmulShoupLazyAvx512Ifma);
#endif
    return out;
}

TEST(Shoup64Simd, ReportsAvx512Kernel)
{
    // The line CI greps to log which AVX-512 multiply ran.
    std::printf("AVX-512 Shoup kernel: %s\n", avx512Kernel());
    EXPECT_EQ(std::string(avx512Kernel()),
              !backendAvailable(Backend::Avx512)
                  ? "unavailable"
                  : (avx512Ifma() ? "ifma" : "emulated"));
}

TEST(Shoup64Simd, LimbBoundariesMatchScalarShoup)
{
    // a straddles every 52-bit limb edge (2^52, 2^104) and the word
    // edges, up to 2^128 - 1 (the Shoup bound r < 2q holds for any a);
    // w covers {0, 1, q-1}; q is the 124-bit ceiling and a small prime.
    // The raw [0, 2q) products must match mod::mulModShoup exactly.
    const auto shoups = availableVectorShoups();
    if (shoups.empty())
        GTEST_SKIP() << "no AVX-512 tier in this build or on this host";
    for (const ntt::NttPrime* prime :
         {&ntt::defaultBenchPrime(), &ntt::smallTestPrime()}) {
        const Modulus m(prime->q);
        const DW<uint64_t> q = mod::toDw(prime->q);
        const BigUInt qb = toBig(q);
        const BigUInt one{1};
        const std::vector<U128> as = {
            U128{},
            U128::fromParts(0, 1),
            ((BigUInt{1} << 52) - one).toU128(),
            (BigUInt{1} << 52).toU128(),
            ((BigUInt{1} << 104) - one).toU128(),
            (BigUInt{1} << 104).toU128(),
            (qb + qb + qb + qb - one).toU128(),
            U128::fromParts(~uint64_t{0}, ~uint64_t{0})};
        const std::vector<U128> ws = {U128{}, U128::fromParts(0, 1),
                                      mod::fromDw(fromBig<uint64_t>(qb - one))};
        // Boundary grid, then random full-width operands against random
        // canonical multiplicands; 8 | length keeps all of it vector.
        std::vector<U128> a, w, wq;
        for (const U128& wv : ws)
            for (const U128& av : as) {
                a.push_back(av);
                w.push_back(wv);
            }
        SplitMix64 rng(0x1F3A);
        for (int i = 0; i < 1024; ++i) {
            a.push_back(U128::fromParts(rng.next(), rng.next()));
            w.push_back(rng.nextBelow(prime->q));
        }
        for (const U128& wv : w)
            wq.push_back(mod::fromDw(mod::shoupPrecompute(mod::toDw(wv), q)));
        ResidueVector va = ResidueVector::fromU128(a);
        ResidueVector vw = ResidueVector::fromU128(w);
        ResidueVector vwq = ResidueVector::fromU128(wq);
        for (const auto& [name, fn] : shoups) {
            SCOPED_TRACE(std::string(name) + " q bits " +
                         std::to_string(prime->bits));
            ResidueVector vc(a.size());
            fn(m, va.span(), vw.span(), vwq.span(), vc.span());
            for (size_t i = 0; i < a.size(); ++i) {
                const DW<uint64_t> want = mod::mulModShoup(
                    mod::toDw(a[i]), mod::toDw(w[i]), mod::toDw(wq[i]), q);
                ASSERT_EQ(vc.at(i), mod::fromDw(want))
                    << "a=" << test::str(a[i]) << " w=" << test::str(w[i]);
            }
        }
    }
}

#if MQX_BUILD_AVX512_IFMA
/**
 * vmulShoupLazyAvx512Ifma over the (a, w, wq) triples, word for word
 * against mod::mulModShoup (r = a*w - floor(a*wq / 2^128)*q mod 2^128,
 * which both compute for any operands below 2^128).
 */
void
expectIfmaMatchesScalarShoup(std::vector<U128> a, std::vector<U128> w,
                             std::vector<U128> wq)
{
    while (a.size() % 8 != 0) {
        a.emplace_back();
        w.emplace_back();
        wq.emplace_back();
    }
    for (const ntt::NttPrime* prime :
         {&ntt::defaultBenchPrime(), &ntt::smallTestPrime()}) {
        SCOPED_TRACE("q bits " + std::to_string(prime->bits));
        const Modulus m(prime->q);
        const DW<uint64_t> q = mod::toDw(prime->q);
        ResidueVector va = ResidueVector::fromU128(a);
        ResidueVector vw = ResidueVector::fromU128(w);
        ResidueVector vwq = ResidueVector::fromU128(wq);
        ResidueVector vc(a.size());
        ntt::backends::vmulShoupLazyAvx512Ifma(m, va.span(), vw.span(),
                                               vwq.span(), vc.span());
        for (size_t i = 0; i < a.size(); ++i) {
            const DW<uint64_t> want = mod::mulModShoup(
                mod::toDw(a[i]), mod::toDw(w[i]), mod::toDw(wq[i]), q);
            ASSERT_EQ(vc.at(i), mod::fromDw(want))
                << "a=" << test::str(a[i]) << " w=" << test::str(w[i])
                << " wq=" << test::str(wq[i]);
        }
    }
}

/** 2^k - 1 for k in [0, 128]. */
U128
onesBelow(int k)
{
    return k == 128 ? U128::fromParts(~uint64_t{0}, ~uint64_t{0})
                    : (U128{1} << k) - U128{1};
}
#endif

TEST(IfmaLimbs, SplitAndJoinRoundTripEveryBit)
{
    // With w = 1 and wq = 0 the IFMA Shoup multiply is the bare limb
    // round trip: h = 0, so r = a. a passes the split (toLimbs52: the
    // vpshrdq middle limb, the vpshufb top limb), three one-term column
    // sums and the rotate/funnel join back to words. a is 2^k and
    // 2^k - 1 for every bit k, so every bit crosses each split and join.
#if MQX_BUILD_AVX512_IFMA
    if (!avx512Ifma())
        GTEST_SKIP() << "host lacks AVX-512 IFMA + VBMI2 (or XCR0 ZMM state)";
    std::vector<U128> a;
    for (int k = 0; k < 128; ++k) {
        a.push_back(U128{1} << k);
        a.push_back(onesBelow(k));
    }
    a.push_back(onesBelow(128));
    expectIfmaMatchesScalarShoup(a, std::vector<U128>(a.size(), U128{1}),
                                 std::vector<U128>(a.size(), U128{}));
#else
    GTEST_SKIP() << "IFMA tier not built";
#endif
}

TEST(IfmaLimbs, HWindowUnderMaximalColumnCarries)
{
    // All-ones limbs for a and wq put the most terms below 2^52 into
    // every column of a*wq, so each carry of h = a*wq >> 128 and each
    // join of its 24-bit-offset window is at its widest; a = 2^k - 1
    // for every k walks the top set bit across the limb edges and the
    // 24-bit offset, against wq = 2^j - 1 at the same edges, and w
    // ranges over all ones, 1 and q - 1 for the a*w + h*(2^128 - q)
    // columns.
#if MQX_BUILD_AVX512_IFMA
    if (!avx512Ifma())
        GTEST_SKIP() << "host lacks AVX-512 IFMA + VBMI2 (or XCR0 ZMM state)";
    const U128 q = ntt::defaultBenchPrime().q;
    std::vector<U128> a, w, wq;
    for (int k = 1; k <= 128; ++k)
        for (int j : {24, 52, 104, 127, 128})
            for (const U128& wv : {onesBelow(128), U128{1}, q - U128{1}}) {
                a.push_back(onesBelow(k));
                wq.push_back(onesBelow(j));
                w.push_back(wv);
            }
    expectIfmaMatchesScalarShoup(a, w, wq);
#else
    GTEST_SKIP() << "IFMA tier not built";
#endif
}

// ---------------------------------------------------------------------
// Lazy add/sub helpers: headroom form against the carry chain
// ---------------------------------------------------------------------

using LazyProbeFn = void (*)(simd::LazyOp, bool, const Modulus&, DConstSpan,
                             DConstSpan, DSpan, DSpan);

/** The lazy-helper probe of every non-MQX vector ISA this host runs. */
std::vector<std::pair<const char*, LazyProbeFn>>
availableLazyProbes()
{
    std::vector<std::pair<const char*, LazyProbeFn>> out;
    out.emplace_back("portable", simd::lazyProbePortable);
#if MQX_BUILD_AVX2
    if (backendAvailable(Backend::Avx2))
        out.emplace_back("avx2", simd::lazyProbeAvx2);
#endif
#if MQX_BUILD_AVX512
    if (backendAvailable(Backend::Avx512))
        out.emplace_back("avx512", simd::lazyProbeAvx512);
#endif
#if MQX_BUILD_AVX512_IFMA
    if (avx512Ifma())
        out.emplace_back("avx512-ifma", simd::lazyProbeAvx512Ifma);
#endif
    return out;
}

/** U128 oracle of one lazy op on one lane (c, and d for Butterfly). */
std::pair<U128, U128>
lazyOracle(simd::LazyOp op, const U128& q, const U128& x, const U128& y)
{
    const U128 q2 = q + q;
    auto condSub = [](const U128& v, const U128& b) {
        return v >= b ? v - b : v;
    };
    switch (op) {
      case simd::LazyOp::AddLazy:
        return {condSub(x + y, q2), U128{}};
      case simd::LazyOp::SubLazyRaw:
        return {x + q2 - y, U128{}};
      case simd::LazyOp::SubLazy:
        return {condSub(x + q2 - y, q2), U128{}};
      case simd::LazyOp::CondSub:
        return {condSub(x, y), U128{}};
      case simd::LazyOp::Butterfly: {
        const DW<uint64_t> qd = mod::toDw(q);
        const DW<uint64_t> w = mod::toDw(q - U128::fromParts(0, 1));
        const DW<uint64_t> v = mod::mulModShoup(
            mod::toDw(x + q2 - y), w, mod::shoupPrecompute(w, qd), qd);
        return {condSub(x + y, q2), mod::fromDw(v)};
      }
    }
    return {};
}

TEST(LazyHeadroom, CarryEdgesMatchCarryChainOnEveryIsa)
{
    // Lanes sit on the carry/borrow edges: low word 2^64 - 1, and x in
    // {b - 1, b, 2b - 1, 4q - 1} around the bounds b = q (the
    // canonicalization) and b = 2q (the lazy bound). q spans the
    // 124-bit ceiling, a two-word 66-bit prime and a one-word 61-bit
    // prime (hi words all zero).
    using simd::LazyOp;
    const U128 one = U128::fromParts(0, 1);
    const U128 lo_ones = U128::fromParts(0, ~uint64_t{0});
    for (const U128& q :
         {ntt::defaultBenchPrime().q, ntt::smallTestPrime().q,
          ntt::findNttPrime(61, 16).q}) {
        const Modulus m(q);
        const U128 q2 = q + q, q4 = q2 + q2;
        // Operands below 2q for the add/sub ops: the edges, values
        // whose low word is all ones, and random residues.
        std::vector<U128> ops = {U128{}, one, q - one, q, q2 - one};
        for (uint64_t hi : {uint64_t{0}, q.hi, q2.hi - (q2.hi != 0)}) {
            const U128 v = U128::fromParts(hi, 0) + lo_ones;
            if (v < q2)
                ops.push_back(v);
        }
        SplitMix64 rng(0x4e77 + q.lo);
        for (int i = 0; i < 8; ++i)
            ops.push_back(rng.nextBelow(q2));
        // CondSub lanes: x around b for b in {q, 2q}, plus all-ones
        // low words up to 4q.
        std::vector<std::pair<U128, U128>> cond;
        for (const U128& b : {q, q2}) {
            for (const U128& x :
                 {U128{}, b - one, b, b + one, b + b - one, q4 - one})
                cond.emplace_back(x, b);
            for (uint64_t hi : {uint64_t{0}, b.hi, q4.hi - (q4.hi != 0)}) {
                const U128 x = U128::fromParts(hi, 0) + lo_ones;
                if (x < q4)
                    cond.emplace_back(x, b);
            }
        }
        for (LazyOp op : {LazyOp::AddLazy, LazyOp::SubLazyRaw,
                          LazyOp::SubLazy, LazyOp::CondSub,
                          LazyOp::Butterfly}) {
            std::vector<U128> xs, ys;
            if (op == LazyOp::CondSub) {
                for (const auto& [x, b] : cond) {
                    xs.push_back(x);
                    ys.push_back(b);
                }
            } else {
                for (const U128& x : ops)
                    for (const U128& y : ops) {
                        xs.push_back(x);
                        ys.push_back(y);
                    }
            }
            while (xs.size() % 8 != 0) { // whole vectors on every ISA
                xs.push_back(xs.front());
                ys.push_back(ys.front());
            }
            const size_t n = xs.size();
            ResidueVector vx = ResidueVector::fromU128(xs);
            ResidueVector vy = ResidueVector::fromU128(ys);
            for (const auto& [name, probe] : availableLazyProbes()) {
                SCOPED_TRACE(std::string(name) + " q bits " +
                             std::to_string(m.bits()) + " op " +
                             std::to_string(static_cast<int>(op)));
                ResidueVector cc(n), dc(n), ch(n), dh(n);
                probe(op, true, m, vx.span(), vy.span(), cc.span(),
                      dc.span());
                probe(op, false, m, vx.span(), vy.span(), ch.span(),
                      dh.span());
                for (size_t i = 0; i < n; ++i) {
                    const auto [c, d] = lazyOracle(op, q, xs[i], ys[i]);
                    ASSERT_EQ(cc.at(i), c) << "carry chain, x="
                                           << test::str(xs[i])
                                           << " y=" << test::str(ys[i]);
                    ASSERT_EQ(ch.at(i), c) << "headroom, x="
                                           << test::str(xs[i])
                                           << " y=" << test::str(ys[i]);
                    if (op == LazyOp::Butterfly) {
                        ASSERT_EQ(dc.at(i), d) << "carry chain v";
                        ASSERT_EQ(dh.at(i), d) << "headroom v";
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace mqx
