/**
 * @file
 * Parallel execution engine tests: the thread pool primitives, plan
 * cache hit behavior, and — the load-bearing property — bit-identical
 * results between a threaded engine and a one-thread engine (whose
 * pool runs every channel inline, in order) on every available
 * backend, including under concurrent batch submission from multiple
 * caller threads.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "telemetry/telemetry.h"
#include "test_util.h"

namespace mqx {
namespace {

void
expectIdentical(const rns::RnsPolynomial& a, const rns::RnsPolynomial& b)
{
    ASSERT_EQ(&a.basis(), &b.basis());
    ASSERT_EQ(a.n(), b.n());
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

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    engine::ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    EXPECT_FALSE(pool.serial());
    std::vector<std::atomic<int>> counts(257);
    pool.parallelFor(0, counts.size(),
                     [&](size_t i) { counts[i].fetch_add(1); });
    for (size_t i = 0; i < counts.size(); ++i)
        ASSERT_EQ(counts[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SerialPoolRunsInlineOnCaller)
{
    engine::ThreadPool pool(1);
    EXPECT_TRUE(pool.serial());
    std::thread::id task_thread;
    pool.parallelFor(0, 1,
                     [&](size_t) { task_thread = std::this_thread::get_id(); });
    EXPECT_EQ(task_thread, std::this_thread::get_id());

    // Indices run in order on the caller — the sequential path.
    std::vector<size_t> order;
    pool.parallelFor(3, 8, [&](size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<size_t>{3, 4, 5, 6, 7}));
}

TEST(ThreadPool, ParallelForPropagatesExceptions)
{
    for (size_t threads : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE(threads);
        engine::ThreadPool pool(threads);
        std::atomic<uint64_t> ran{0};
        EXPECT_THROW(pool.parallelFor(0, 16,
                                      [&](size_t i) {
                                          ran.fetch_add(1);
                                          if (i == 11)
                                              throw InvalidArgument("boom");
                                      }),
                     InvalidArgument);
        // The call drained before rethrowing: every index was claimed
        // by some executor, and each one whose body did not run is
        // counted skipped.
        engine::ThreadPool::Stats s = pool.stats();
        EXPECT_EQ(s.submitted, 16u);
        EXPECT_EQ(s.executed(), s.submitted);
        EXPECT_EQ(s.skipped, 16u - ran.load());

        // The pool is still usable after the failure.
        std::vector<std::atomic<int>> counts(16);
        pool.parallelFor(0, counts.size(),
                         [&](size_t i) { counts[i].fetch_add(1); });
        for (size_t i = 0; i < counts.size(); ++i)
            ASSERT_EQ(counts[i].load(), 1) << "index " << i;

        // Two indices throw distinguishable errors: the lower index's
        // error surfaces at every width, as in the serial loop.
        try {
            pool.parallelFor(0, 16, [](size_t i) {
                if (i == 5 || i == 11)
                    throw InvalidArgument("index " + std::to_string(i));
            });
            FAIL() << "parallelFor did not throw";
        } catch (const InvalidArgument& e) {
            EXPECT_NE(std::string(e.what()).find("index 5"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ThreadPool, ConcurrentParallelForBatchesAllComplete)
{
    // Several external threads submit interleaved batches: every
    // caller makes progress on its own indices even while another
    // batch is published, no index is lost or run twice, and a caller
    // thread only ever runs indices of its own batch.
    engine::ThreadPool pool(3);
    const int kCallers = 4;
    const int kRounds = 3;
    const size_t kIndices = 101;
    std::vector<std::vector<std::atomic<int>>> counts(kCallers);
    for (auto& c : counts) {
        std::vector<std::atomic<int>> fresh(kIndices);
        c.swap(fresh);
    }
    // ran_on[t][round * kIndices + i]: the thread that ran that index.
    std::vector<std::vector<std::thread::id>> ran_on(
        kCallers, std::vector<std::thread::id>(kRounds * kIndices));
    std::vector<std::thread::id> caller_ids(kCallers);
    std::vector<std::thread> callers;
    for (int t = 0; t < kCallers; ++t) {
        callers.emplace_back([&, t] {
            caller_ids[t] = std::this_thread::get_id();
            for (int round = 0; round < kRounds; ++round) {
                pool.parallelFor(0, kIndices, [&, t, round](size_t i) {
                    counts[t][i].fetch_add(1);
                    ran_on[t][round * kIndices + i] =
                        std::this_thread::get_id();
                });
            }
        });
    }
    for (auto& c : callers)
        c.join();
    for (int t = 0; t < kCallers; ++t) {
        for (size_t i = 0; i < kIndices; ++i)
            ASSERT_EQ(counts[t][i].load(), kRounds)
                << "caller " << t << " index " << i;
        for (const std::thread::id& id : ran_on[t]) {
            for (int other = 0; other < kCallers; ++other) {
                if (other == t)
                    continue;
                ASSERT_NE(id, caller_ids[other])
                    << "caller " << other << " ran an index of caller " << t
                    << "'s batch";
            }
        }
    }
}

TEST(ThreadPool, StatsAttributeEveryTaskExactlyOnce)
{
    // The Stats invariant: once the pool is quiescent, every submitted
    // task was executed by exactly one executor — a worker or a caller
    // (inline or stealing) — so the counters add up with no loss and no
    // double count, even across concurrent batches.
    engine::ThreadPool pool(4);
    const int kCallers = 3;
    const size_t kIndices = 64;
    const int kRounds = 2;
    std::atomic<uint64_t> ran{0};
    std::vector<std::thread> callers;
    for (int t = 0; t < kCallers; ++t) {
        callers.emplace_back([&] {
            for (int round = 0; round < kRounds; ++round) {
                pool.parallelFor(0, kIndices, [&](size_t) {
                    ran.fetch_add(1, std::memory_order_relaxed);
                });
            }
        });
    }
    for (auto& c : callers)
        c.join();
    pool.parallelFor(0, 1, [](size_t) {});

    const uint64_t expected =
        static_cast<uint64_t>(kCallers) * kRounds * kIndices + 1;
    EXPECT_EQ(ran.load() + 1, expected);
    engine::ThreadPool::Stats s = pool.stats();
    EXPECT_EQ(s.worker_tasks.size(), 3u); // threadCount() - 1 workers
    EXPECT_EQ(s.submitted, expected);
    EXPECT_EQ(s.executed(), s.submitted);
    EXPECT_LE(s.steals, s.caller_tasks); // steals are caller-executed
}

TEST(ThreadPool, SerialPoolStatsCountInlineCallerTasks)
{
    engine::ThreadPool pool(1);
    pool.parallelFor(0, 1, [](size_t) {});
    pool.parallelFor(0, 5, [](size_t) {});
    engine::ThreadPool::Stats s = pool.stats();
    EXPECT_TRUE(s.worker_tasks.empty());
    EXPECT_EQ(s.submitted, 6u);
    EXPECT_EQ(s.caller_tasks, 6u);
    EXPECT_EQ(s.steals, 0u); // inline runs are not steals
    EXPECT_EQ(s.executed(), s.submitted);
}

TEST(ThreadPool, EngineOpTelemetryDeltaMatchesPoolStats)
{
    // pool.tasks in the telemetry snapshot and the pool's own Stats are
    // one counter set: a warmed Engine op moves both by the same amount.
    engine::Engine eng(Backend::Scalar, 3);
    const auto& basis = testBasis();
    auto a = rns::randomPolynomial(basis, 64, 7);
    auto b = rns::randomPolynomial(basis, 64, 8);
    (void)eng.polymulNegacyclic(a, b); // warm: plans built
    const uint64_t tasks0 = telemetry::total("pool.tasks");
    const engine::ThreadPool::Stats s0 = eng.pool().stats();
    (void)eng.polymulNegacyclic(a, b);
    const engine::ThreadPool::Stats s1 = eng.pool().stats();
    EXPECT_GT(s1.executed(), s0.executed());
    EXPECT_EQ(telemetry::total("pool.tasks") - tasks0,
              s1.executed() - s0.executed());
    EXPECT_EQ(s1.executed(), s1.submitted);
}

TEST(PlanCache, StatsCountBuildsSeparatelyFromMisses)
{
    engine::PlanCache cache;
    const auto& prime = testBasis().prime(0);
    (void)cache.getNegacyclic(prime, 64);
    engine::PlanCache::Stats cold = cache.stats();
    EXPECT_EQ(cold.misses, 1u);
    EXPECT_EQ(cold.builds, 1u);
    EXPECT_GT(cold.build_ns, 0u);

    // Warm second lookup: one hit, zero new builds, no new build time.
    (void)cache.getNegacyclic(prime, 64);
    engine::PlanCache::Stats warm = cache.stats();
    EXPECT_EQ(warm.hits, 1u);
    EXPECT_EQ(warm.misses, 1u);
    EXPECT_EQ(warm.builds, 1u);
    EXPECT_EQ(warm.build_ns, cold.build_ns);

    // A fresh key is one miss and one build: the entry derives its
    // cyclic plan and psi tables together.
    (void)cache.getNegacyclic(prime, 128);
    engine::PlanCache::Stats after = cache.stats();
    EXPECT_EQ(after.misses, 2u);
    EXPECT_EQ(after.builds, 2u);
    EXPECT_GT(after.build_ns, warm.build_ns);
}

TEST(PlanCache, ConcurrentColdMissesBuildOnce)
{
    // Eight threads miss on one cold key at once: exactly one of them
    // builds, every caller gets that same entry, and each lookup counts
    // as one hit or one miss.
    engine::PlanCache cache;
    const auto& prime = testBasis().prime(0);
    constexpr size_t kThreads = 8;
    std::vector<std::shared_ptr<const ntt::NegacyclicTables>> got(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            got[t] = cache.getNegacyclic(prime, 128);
        });
    }
    for (auto& th : threads)
        th.join();
    for (const auto& tables : got)
        EXPECT_EQ(tables.get(), got[0].get());
    const engine::PlanCache::Stats st = cache.stats();
    EXPECT_EQ(st.builds, 1u);
    EXPECT_EQ(st.hits + st.misses, kThreads);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(ThreadPool, DefaultThreadCountHonorsMqxThreadsEnv)
{
    const char* old = std::getenv("MQX_THREADS");
    std::string saved = old ? old : "";
    setenv("MQX_THREADS", "3", 1);
    EXPECT_EQ(engine::defaultThreadCount(), 3u);
    setenv("MQX_THREADS", "not-a-number", 1);
    EXPECT_GE(engine::defaultThreadCount(), 1u); // invalid -> hardware
    setenv("MQX_THREADS", "0", 1);
    EXPECT_GE(engine::defaultThreadCount(), 1u); // non-positive -> hardware
    if (old)
        setenv("MQX_THREADS", saved.c_str(), 1);
    else
        unsetenv("MQX_THREADS");
}

TEST(PlanCache, MemoizesByModulusAndSize)
{
    engine::PlanCache cache;
    const auto& prime = testBasis().prime(0);
    auto p1 = cache.getNegacyclic(prime, 64);
    auto p2 = cache.getNegacyclic(prime, 64);
    EXPECT_EQ(p1.get(), p2.get()); // same instance, not just same value
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);

    auto p3 = cache.getNegacyclic(prime, 128);
    EXPECT_NE(p1.get(), p3.get());
    auto p4 = cache.getNegacyclic(testBasis().prime(1), 64);
    EXPECT_NE(p1.get(), p4.get());
    EXPECT_EQ(cache.stats().misses, 3u);
    EXPECT_EQ(cache.size(), 3u); // one entry per (q, n)

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(p1->plan().n(), 64u); // outstanding entries survive clear()
}

TEST(PlanCache, TwiddleBytesAccountShoupAndTwistTables)
{
    engine::PlanCache cache;
    const auto& prime = testBasis().prime(0);
    EXPECT_EQ(cache.twiddleBytes(), 0u);

    auto tables = cache.getNegacyclic(prime, 64);
    // An entry holds its psi table and the table's Shoup companions (2
    // split vectors of n elements, 32n bytes); its plan's cyclic tables
    // (8 arrays of n/2 words, Shoup companions included) count only
    // once a cyclic transform has built them.
    EXPECT_EQ(tables->tableBytes(), 32u * 64);
    EXPECT_EQ(tables->plan().twiddleBytes(), 8u * 32 * sizeof(uint64_t));
    EXPECT_FALSE(tables->plan().twiddlesBuilt());
    EXPECT_EQ(cache.twiddleBytes(), tables->tableBytes());

    ResidueVector in(64), out(64), scratch(64);
    ntt::forward(tables->plan(), Backend::Scalar, in.span(), out.span(),
                 scratch.span());
    EXPECT_TRUE(tables->plan().twiddlesBuilt());
    EXPECT_EQ(cache.twiddleBytes(),
              tables->plan().twiddleBytes() + tables->tableBytes());

    auto tables2 = cache.getNegacyclic(prime, 128);
    EXPECT_EQ(tables2->tableBytes(), 32u * 128);
    EXPECT_EQ(cache.twiddleBytes(), tables->plan().twiddleBytes() +
                                        tables->tableBytes() +
                                        tables2->tableBytes());
    cache.clear();
    EXPECT_EQ(cache.twiddleBytes(), 0u);
}

TEST(PlanCache, EngineOpsBuildNoCyclicTables)
{
    // polymul, fma and batch polymul at n = 4096 over four channels run
    // the merged negacyclic kernels only: the cache holds one psi table
    // per channel and no plan's cyclic tables.
    static rns::RnsBasis basis(40, 13, 4);
    const size_t n = 4096;
    engine::Engine eng(bestBackend(), 2);
    std::vector<rns::RnsPolynomial> as, bs;
    std::vector<std::pair<const rns::RnsPolynomial*,
                          const rns::RnsPolynomial*>>
        products;
    for (uint64_t i = 0; i < 8; ++i) {
        as.push_back(rns::randomPolynomial(basis, n, 300 + i));
        bs.push_back(rns::randomPolynomial(basis, n, 400 + i));
    }
    for (size_t i = 0; i < as.size(); ++i)
        products.push_back({&as[i], &bs[i]});

    (void)eng.polymulNegacyclic(as[0], bs[0]);
    (void)eng.fmaBatch(products);
    (void)eng.polymulNegacyclicBatch(products);
    engine::PlanCache& cache = eng.planCache();
    EXPECT_EQ(cache.size(), 4u);
    const auto tables = cache.getNegacyclic(basis.prime(0), n);
    EXPECT_EQ(cache.twiddleBytes(), 4 * tables->tableBytes());
    for (size_t c = 0; c < 4; ++c)
        EXPECT_FALSE(
            cache.getNegacyclic(basis.prime(c), n)->plan().twiddlesBuilt());
}

TEST(PlanCache, EnginePolymulHitsCacheOnRepeat)
{
    engine::Engine eng(Backend::Scalar, 2);
    const auto& basis = testBasis();
    auto a = rns::randomPolynomial(basis, 64, 1);
    auto b = rns::randomPolynomial(basis, 64, 2);
    auto first = eng.polymulNegacyclic(a, b);
    EXPECT_EQ(eng.planCache().stats().misses, basis.size());
    EXPECT_EQ(eng.planCache().stats().builds, basis.size());
    // Same tables, same bits.
    expectIdentical(eng.polymulNegacyclic(a, b), first);
    EXPECT_EQ(eng.planCache().stats().misses, basis.size());
    EXPECT_EQ(eng.planCache().stats().hits, basis.size());
    // One entry per channel, its cyclic plan included.
    EXPECT_EQ(eng.planCache().size(), basis.size());

    // A different length caches its own tables; conversions share them.
    auto c = rns::randomPolynomial(basis, 32, 3);
    expectIdentical(eng.toCoeff(eng.toEval(c)), c);
    EXPECT_EQ(eng.planCache().size(), 2 * basis.size());
}

TEST(EngineParallel, ThreadedMatchesSerialOnAllBackends)
{
    const auto& basis = testBasis();
    const size_t n = 64;
    auto a = rns::randomPolynomial(basis, n, 42);
    auto b = rns::randomPolynomial(basis, n, 43);

    for (Backend be : test::availableCorrectBackends()) {
        SCOPED_TRACE(backendName(be));
        engine::Engine serial(be, 1);
        auto add_ref = serial.add(a, b);
        auto mul_ref = serial.mul(a, b);
        auto poly_ref = serial.polymulNegacyclic(a, b);

        for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
            SCOPED_TRACE(threads);
            engine::Engine eng(be, threads);
            EXPECT_EQ(eng.threads(), threads);
            expectIdentical(eng.add(a, b), add_ref);
            expectIdentical(eng.mul(a, b), mul_ref);
            expectIdentical(eng.polymulNegacyclic(a, b), poly_ref);
        }
    }
}

TEST(EngineParallelLargeN, ThreadedPolymulRoundTripAt65536)
{
    // The raised size ceiling end to end: negacyclic polymul at
    // n = 2^16 on direct plans, under the thread pool, must stay
    // bit-identical to the serial path. Primes need 2-adicity >= 17 for
    // the 2n-th root.
    static rns::RnsBasis basis(40, 17, 2);
    const size_t n = size_t{1} << 16;
    auto a = rns::randomPolynomial(basis, n, 161);
    auto b = rns::randomPolynomial(basis, n, 162);

    Backend be = bestBackend();
    engine::Engine serial(be, 1);
    auto poly_ref = serial.polymulNegacyclic(a, b);

    engine::Engine eng(be, 4);
    expectIdentical(eng.polymulNegacyclic(a, b), poly_ref);
    // The cache holds each channel's merged psi table and nothing else:
    // no Engine op builds a plan's cyclic tables.
    const size_t k = basis.size();
    EXPECT_EQ(eng.planCache().size(), k);
    auto tables = eng.planCache().getNegacyclic(basis.prime(0), n);
    EXPECT_TRUE(ntt::batchSupported(tables->plan()));
    EXPECT_EQ(tables->tableBytes(), 32 * n);
    EXPECT_EQ(eng.planCache().twiddleBytes(), k * tables->tableBytes());

    // Round trip through the evaluation form at the same size.
    auto back = eng.toCoeff(eng.toEval(a));
    expectIdentical(back, a);
}

TEST(EngineParallel, OperandValidation)
{
    const auto& basis = testBasis();
    rns::RnsBasis other(40, 8, 2);
    engine::Engine eng(Backend::Scalar, 2);

    auto a = rns::randomPolynomial(basis, 64, 1);
    auto short_b = rns::randomPolynomial(basis, 32, 2);
    auto foreign = rns::randomPolynomial(other, 64, 3);
    EXPECT_THROW(eng.add(a, short_b), InvalidArgument);
    EXPECT_THROW(eng.polymulNegacyclic(a, foreign), InvalidArgument);
    EXPECT_THROW(eng.polymulNegacyclicBatch({{&a, nullptr}}),
                 InvalidArgument);
    EXPECT_TRUE(eng.polymulNegacyclicBatch({}).empty());

    // Errors name the Engine op that rejected the operands.
    try {
        eng.polymulNegacyclic(a, foreign);
        FAIL() << "basis mismatch accepted";
    } catch (const InvalidArgument& e) {
        EXPECT_NE(std::string(e.what()).find("Engine::polymulNegacyclic"),
                  std::string::npos)
            << e.what();
    }
}

TEST(EngineParallel, BatchMatchesIndividualOps)
{
    const auto& basis = testBasis();
    const size_t n = 64;
    engine::Engine eng(bestBackend(), 4);

    std::vector<rns::RnsPolynomial> as, bs;
    for (uint64_t i = 0; i < 5; ++i) {
        as.push_back(rns::randomPolynomial(basis, n, 100 + i));
        bs.push_back(rns::randomPolynomial(basis, n, 200 + i));
    }
    std::vector<std::pair<const rns::RnsPolynomial*,
                          const rns::RnsPolynomial*>>
        products;
    for (size_t i = 0; i < as.size(); ++i)
        products.push_back({&as[i], &bs[i]});

    auto results = eng.polymulNegacyclicBatch(products);
    ASSERT_EQ(results.size(), products.size());
    engine::Engine serial(eng.backend(), 1);
    for (size_t i = 0; i < results.size(); ++i)
        expectIdentical(results[i], serial.polymulNegacyclic(as[i], bs[i]));
}

TEST(EngineParallel, ConcurrentBatchSubmission)
{
    const auto& basis = testBasis();
    const size_t n = 64;
    engine::Engine eng(bestBackend(), 4);

    auto a = rns::randomPolynomial(basis, n, 11);
    auto b = rns::randomPolynomial(basis, n, 12);
    engine::Engine serial(eng.backend(), 1);
    auto reference = serial.polymulNegacyclic(a, b);

    // Several external threads hammer the same engine: every result
    // must match, and nothing may deadlock.
    const int kSubmitters = 4;
    std::vector<std::vector<rns::RnsPolynomial>> outputs(kSubmitters);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&, t] {
            std::vector<std::pair<const rns::RnsPolynomial*,
                                  const rns::RnsPolynomial*>>
                products(3, {&a, &b});
            outputs[t] = eng.polymulNegacyclicBatch(products);
        });
    }
    for (auto& t : submitters)
        t.join();
    for (const auto& batch : outputs) {
        ASSERT_EQ(batch.size(), 3u);
        for (const auto& result : batch)
            expectIdentical(result, reference);
    }
}

} // namespace
} // namespace mqx
