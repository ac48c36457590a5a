/**
 * @file
 * Telemetry subsystem tests: histogram bucket math against a sorted
 * oracle, sharded counters and concurrent recording (the TSan target),
 * span nesting/self-time attribution, well-formedness of the two
 * JSON exports (snapshot and Chrome trace), and the instance-counter
 * registry that pool, plan-cache and server Stats are views over.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/env.h"
#include "core/layout_metrics.h"
#include "engine/plan_cache.h"
#include "engine/thread_pool.h"
#include "rns/rns.h"
#include "telemetry/telemetry.h"

namespace mqx {
namespace {

using telemetry::Histogram;

/**
 * Minimal recursive-descent JSON validator — enough to reject the
 * classic exporter bugs (trailing commas, unescaped quotes, truncated
 * documents) without pulling in a JSON library.
 */
class JsonChecker
{
  public:
    static bool
    valid(const std::string& text)
    {
        JsonChecker c(text);
        c.skipWs();
        if (!c.value())
            return false;
        c.skipWs();
        return c.pos_ == text.size();
    }

  private:
    explicit JsonChecker(const std::string& text) : text_(text) {}

    bool
    value()
    {
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == '\\') {
                pos_ += 2;
                continue;
            }
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // control chars must be escaped
            ++pos_;
        }
        return false;
    }

    bool
    number()
    {
        size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        return pos_ > start;
    }

    bool
    literal(const char* word)
    {
        for (const char* p = word; *p; ++p, ++pos_) {
            if (pos_ >= text_.size() || text_[pos_] != *p)
                return false;
        }
        return true;
    }

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    const std::string& text_;
    size_t pos_ = 0;
};

TEST(Histogram, BucketIndexRoundTripsThroughBounds)
{
    // Every value must land in a bucket whose [lower, upper] range
    // contains it, buckets must tile the axis without gaps, and values
    // below kSub are exact.
    std::vector<uint64_t> probes;
    for (uint64_t v = 0; v < 300; ++v)
        probes.push_back(v);
    for (unsigned msb = 8; msb < 64; ++msb) {
        uint64_t base = uint64_t{1} << msb;
        for (uint64_t off : {uint64_t{0}, uint64_t{1}, base / 3, base / 2,
                             base - 1})
            probes.push_back(base + off);
    }
    probes.push_back(UINT64_MAX);

    for (uint64_t v : probes) {
        size_t idx = Histogram::bucketIndex(v);
        ASSERT_LT(idx, Histogram::kBuckets) << v;
        uint64_t lo = 0, hi = 0;
        Histogram::bucketBounds(idx, lo, hi);
        ASSERT_LE(lo, v) << "bucket " << idx;
        ASSERT_GE(hi, v) << "bucket " << idx;
        if (v < Histogram::kSub) {
            ASSERT_EQ(lo, hi); // exact small values
        }
    }

    // Adjacent buckets tile: upper(i) + 1 == lower(i + 1).
    uint64_t prev_hi = 0;
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
        uint64_t lo = 0, hi = 0;
        Histogram::bucketBounds(i, lo, hi);
        if (i > 0) {
            ASSERT_EQ(lo, prev_hi + 1) << "gap before bucket " << i;
        }
        ASSERT_GE(hi, lo);
        prev_hi = hi;
        if (hi == UINT64_MAX)
            break;
    }
}

TEST(Histogram, QuantilesMatchSortedOracleWithinBucketError)
{
    // Deterministic but irregular sample; the documented contract is
    //   true_q <= reported <= true_q + true_q/8 + 1
    // (the reported value is the upper bound of the bucket holding the
    // rank-ceil(q*count) sample).
    Histogram h;
    std::vector<uint64_t> values;
    uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 5000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        uint64_t v = x % 2000000; // ns scale: 0 .. 2 ms
        values.push_back(v);
        h.record(v);
    }
    std::sort(values.begin(), values.end());

    for (double q : {0.5, 0.95, 0.99}) {
        size_t rank = static_cast<size_t>(
            std::ceil(q * static_cast<double>(values.size())));
        rank = std::min(std::max<size_t>(rank, 1), values.size());
        uint64_t truth = values[rank - 1];
        uint64_t reported = h.quantile(q);
        EXPECT_GE(reported, truth) << "q=" << q;
        EXPECT_LE(reported, truth + truth / 8 + 1) << "q=" << q;
    }

    telemetry::HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, values.size());
    EXPECT_EQ(snap.max_ns, values.back());
    uint64_t sum = 0;
    for (uint64_t v : values)
        sum += v;
    EXPECT_EQ(snap.sum_ns, sum);
    EXPECT_EQ(snap.p50_ns, h.quantile(0.5));
    EXPECT_EQ(snap.p95_ns, h.quantile(0.95));
    EXPECT_EQ(snap.p99_ns, h.quantile(0.99));
}

TEST(Histogram, EmptyReportsZeros)
{
    Histogram h;
    telemetry::HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_EQ(snap.sum_ns, 0u);
    EXPECT_EQ(snap.max_ns, 0u);
    EXPECT_EQ(snap.p50_ns, 0u);
    EXPECT_EQ(h.quantile(0.99), 0u);
}

TEST(Histogram, ConcurrentRecordingLosesNothing)
{
    // The TSan target: many threads hammer one histogram; the merged
    // snapshot must account every sample (relaxed atomics lose no
    // increments, and the sharded layout must not alias buckets).
    Histogram h;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h, t] {
            for (int i = 0; i < kPerThread; ++i)
                h.record(static_cast<uint64_t>(t) * 1000 + i % 997);
        });
    }
    for (auto& t : threads)
        t.join();
    telemetry::HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, uint64_t{kThreads} * kPerThread);
    EXPECT_GE(snap.max_ns, uint64_t{(kThreads - 1) * 1000});
}

TEST(Counter, ShardedSumAcrossThreads)
{
    telemetry::Counter& c = telemetry::counter("test.counter.sharded");
    c.reset();
    constexpr int kThreads = 8;
    constexpr int kPerThread = 50000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c] {
            for (int i = 0; i < kPerThread; ++i)
                c.add(1);
        });
    }
    for (auto& t : threads)
        t.join();
    EXPECT_EQ(c.value(), uint64_t{kThreads} * kPerThread);

    // Interning: the same name resolves to the same counter object.
    EXPECT_EQ(&telemetry::counter("test.counter.sharded"), &c);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Span, SelfTimePlusChildDurationsEqualsParentDuration)
{
    if (!telemetry::compiledIn())
        GTEST_SKIP() << "spans compiled out (MQX_TELEMETRY=OFF)";
    telemetry::setEnabled(true);
    telemetry::SpanSite& outer = telemetry::spanSite("test.span.outer");
    telemetry::SpanSite& inner = telemetry::spanSite("test.span.inner");
    outer.hist.reset();
    outer.self_ns.reset();
    inner.hist.reset();
    inner.self_ns.reset();

    {
        telemetry::ScopedSpan s_outer(outer);
        for (int i = 0; i < 3; ++i) {
            telemetry::ScopedSpan s_inner(inner);
            volatile uint64_t sink = 0;
            for (int k = 0; k < 20000; ++k)
                sink = sink + k;
        }
    }

    telemetry::HistogramSnapshot o = outer.hist.snapshot();
    telemetry::HistogramSnapshot in = inner.hist.snapshot();
    EXPECT_EQ(o.count, 1u);
    EXPECT_EQ(in.count, 3u);
    // Self time is computed as duration minus child durations from the
    // same clock readings, so the partition is exact, not approximate:
    // outer_self + sum(inner durations) == outer duration.
    EXPECT_EQ(outer.self_ns.value() + in.sum_ns, o.sum_ns);
    // Leaf spans have no children: self == duration.
    EXPECT_EQ(inner.self_ns.value(), in.sum_ns);
}

TEST(Span, RuntimeDisableRecordsNothing)
{
    if (!telemetry::compiledIn())
        GTEST_SKIP() << "spans compiled out (MQX_TELEMETRY=OFF)";
    telemetry::SpanSite& site = telemetry::spanSite("test.span.disabled");
    site.hist.reset();
    telemetry::setEnabled(false);
    {
        MQX_SCOPED_SPAN(span, "test.span.disabled");
    }
    telemetry::setEnabled(true);
    EXPECT_EQ(site.hist.snapshot().count, 0u);
    {
        MQX_SCOPED_SPAN(span, "test.span.disabled");
    }
    EXPECT_EQ(site.hist.snapshot().count, 1u);
}

TEST(Span, EnvSwitchParsesTheKillSwitchSpellings)
{
    // The parse behind MQX_TELEMETRY (read once, at first use, through
    // core/env.h): 0/off/OFF disable, 1/on/ON and unset keep the
    // default, anything else falls back to it with a telemetry note.
    const char* kVar = "MQX_TELEMETRY";
    const char* saved = std::getenv(kVar);
    const std::string restore = saved ? saved : "";
    for (const char* off : {"0", "off", "OFF"}) {
        ::setenv(kVar, off, 1);
        EXPECT_FALSE(core::envSwitch(kVar, true)) << off;
    }
    for (const char* on : {"1", "on", "ON"}) {
        ::setenv(kVar, on, 1);
        EXPECT_TRUE(core::envSwitch(kVar, true)) << on;
        EXPECT_TRUE(core::envSwitch(kVar, false)) << on;
    }
    ::unsetenv(kVar);
    EXPECT_TRUE(core::envSwitch(kVar, true));
    ::setenv(kVar, "", 1);
    EXPECT_TRUE(core::envSwitch(kVar, true));
    ::setenv(kVar, "banana", 1);
    EXPECT_TRUE(core::envSwitch(kVar, true));
    EXPECT_FALSE(core::envSwitch(kVar, false));
    EXPECT_GE(telemetry::counter("env.fallback.MQX_TELEMETRY").value(), 1u);
    if (saved)
        ::setenv(kVar, restore.c_str(), 1);
    else
        ::unsetenv(kVar);
}

TEST(Snapshot, JsonIsWellFormedAndContainsRegisteredNames)
{
    telemetry::counter("test.snapshot.counter").add(7);
    if (telemetry::compiledIn()) {
        telemetry::setEnabled(true);
        MQX_SCOPED_SPAN(span, "test.snapshot.span");
    }
    layout::noteFromU128(); // satellite: layout counters share the registry

    std::string json = telemetry::snapshotJson();
    EXPECT_TRUE(JsonChecker::valid(json)) << json;
    EXPECT_NE(json.find("\"test.snapshot.counter\""), std::string::npos);
    EXPECT_NE(json.find("\"layout.from_u128\""), std::string::npos);
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"spans\""), std::string::npos);
    if (telemetry::compiledIn()) {
        EXPECT_NE(json.find("\"test.snapshot.span\""), std::string::npos);
    }
}

TEST(Snapshot, LayoutMetricsWrapperStillCounts)
{
    // The pre-telemetry layout_metrics API is a thin wrapper over
    // registry counters; the old contract (note -> metrics delta) must
    // hold verbatim.
    layout::Metrics before = layout::metrics();
    layout::noteFromU128();
    layout::noteToU128();
    layout::noteToU128();
    layout::noteAlignedAlloc();
    layout::Metrics after = layout::metrics();
    layout::Metrics d = layout::delta(before, after);
    EXPECT_EQ(d.from_u128, 1u);
    EXPECT_EQ(d.to_u128, 2u);
    EXPECT_EQ(d.aligned_allocs, 1u);
    EXPECT_EQ(d.conversions(), 3u);
}

TEST(Trace, BoundedBufferExportsValidChromeJson)
{
    if (!telemetry::compiledIn())
        GTEST_SKIP() << "tracing compiled out (MQX_TELEMETRY=OFF)";
    telemetry::setEnabled(true);
    telemetry::setThreadName("test-main");
    telemetry::enableTracing(16); // deliberately smaller than the load
    EXPECT_TRUE(telemetry::tracingEnabled());
    for (int i = 0; i < 64; ++i) {
        MQX_SCOPED_SPAN(span, "test.trace.span");
    }
    std::string json = telemetry::traceJson();
    telemetry::disableTracing();
    EXPECT_FALSE(telemetry::tracingEnabled());

    EXPECT_TRUE(JsonChecker::valid(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"test.trace.span\""), std::string::npos);
    EXPECT_NE(json.find("\"test-main\""), std::string::npos);
    // Bounded: 16 slots -> at most 16 "X" events despite 64 spans.
    size_t events = 0;
    for (size_t pos = 0;
         (pos = json.find("\"ph\": \"X\"", pos)) != std::string::npos;
         ++pos)
        ++events;
    EXPECT_LE(events, 16u);
    EXPECT_GE(events, 1u);
}

TEST(Trace, ConcurrentSpansExportCleanly)
{
    if (!telemetry::compiledIn())
        GTEST_SKIP() << "tracing compiled out (MQX_TELEMETRY=OFF)";
    telemetry::setEnabled(true);
    telemetry::enableTracing(4096);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < 200; ++i) {
                MQX_SCOPED_SPAN(span, "test.trace.concurrent");
            }
        });
    }
    for (auto& t : threads)
        t.join();
    std::string json = telemetry::traceJson();
    telemetry::disableTracing();
    EXPECT_TRUE(JsonChecker::valid(json));
    EXPECT_NE(json.find("\"test.trace.concurrent\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Instance counters: owned by an object, reported under a shared name.
// ---------------------------------------------------------------------------

/** The value snapshotJson() reports for counter @p name (-1: absent). */
int64_t
snapshotValue(const std::string& json, const std::string& name)
{
    const std::string key = "\"" + name + "\": ";
    const size_t pos = json.find(key);
    if (pos == std::string::npos)
        return -1;
    return std::strtoll(json.c_str() + pos + key.size(), nullptr, 10);
}

TEST(TelemetryRegistry, LiveInstancesOfOneNameSum)
{
    // Relative to what earlier runs of this test retired (--gtest_repeat).
    const char* kName = "test.registry.sum";
    const uint64_t base = telemetry::total(kName);
    telemetry::InstanceCounter a(kName);
    telemetry::InstanceCounter b(kName);
    a.add(3);
    b.add(4);
    EXPECT_EQ(a.value(), 3u);
    EXPECT_EQ(b.value(), 4u);
    EXPECT_EQ(telemetry::total(kName), base + 7);
    EXPECT_EQ(telemetry::counter(kName).value(), base); // nothing new retired
    EXPECT_EQ(snapshotValue(telemetry::snapshotJson(), kName),
              static_cast<int64_t>(base + 7));
    EXPECT_EQ(telemetry::total("test.registry.never_registered"), 0u);
}

TEST(TelemetryRegistry, DestroyedInstanceFoldsIntoProcessTotal)
{
    const char* kName = "test.registry.fold";
    const uint64_t base = telemetry::total(kName);
    telemetry::InstanceCounter survivor(kName);
    survivor.add(5);
    {
        telemetry::InstanceCounter gone(kName);
        gone.add(11);
        EXPECT_EQ(telemetry::total(kName), base + 16);
    }
    EXPECT_EQ(telemetry::total(kName), base + 16);
    EXPECT_EQ(telemetry::counter(kName).value(), base + 11);
    EXPECT_EQ(survivor.value(), 5u);
    EXPECT_EQ(snapshotValue(telemetry::snapshotJson(), kName),
              static_cast<int64_t>(base + 16));
}

/**
 * resetAll() zeroes every counter in the process, notes other tests
 * expect to persist (env.fallback.*) included, so this check runs in a
 * child process and reports through its exit code: 1 the set-up total,
 * 2 a count resetAll() left, 3 counting after the reset.
 */
TEST(TelemetryRegistryDeathTest, ResetAllZeroesLiveAndRetiredCounts)
{
    const char* kName = "test.registry.reset";
    auto check = [kName] {
        const uint64_t base = telemetry::total(kName);
        {
            telemetry::InstanceCounter gone(kName);
            gone.add(2);
        }
        telemetry::InstanceCounter live(kName);
        live.add(9);
        if (telemetry::total(kName) != base + 11)
            std::exit(1);
        telemetry::resetAll();
        if (live.value() != 0 || telemetry::counter(kName).value() != 0 ||
            telemetry::total(kName) != 0)
            std::exit(2);
        live.add(1);
        std::exit(telemetry::total(kName) == 1 ? 0 : 3);
    };
    // Re-executed rather than forked: under TSan the process is never
    // single-threaded (the runtime keeps a thread of its own).
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(check(), ::testing::ExitedWithCode(0), "");
}

TEST(TelemetryRegistry, PerInstanceStatsDoNotSeeEachOthersWork)
{
    const uint64_t tasks0 = telemetry::total("pool.tasks");
    const uint64_t submitted0 = telemetry::total("pool.submitted");
    {
        engine::ThreadPool p1(2);
        engine::ThreadPool p2(3);
        p1.parallelFor(0, 5, [](size_t) {});
        p2.parallelFor(0, 7, [](size_t) {});
        p2.parallelFor(0, 1, [](size_t) {});
        const engine::ThreadPool::Stats s1 = p1.stats();
        const engine::ThreadPool::Stats s2 = p2.stats();
        EXPECT_EQ(s1.submitted, 5u);
        EXPECT_EQ(s1.executed(), 5u);
        EXPECT_EQ(s2.submitted, 8u);
        EXPECT_EQ(s2.executed(), 8u);
        EXPECT_EQ(telemetry::total("pool.tasks") - tasks0, 13u);
        EXPECT_EQ(telemetry::total("pool.submitted") - submitted0, 13u);
    }
    // Both pools retired: their work stays in the process totals.
    EXPECT_EQ(telemetry::total("pool.tasks") - tasks0, 13u);

    const uint64_t builds0 = telemetry::total("plancache.builds");
    const uint64_t hits0 = telemetry::total("plancache.hits");
    const rns::RnsBasis basis(40, 8, 1);
    engine::PlanCache c1;
    engine::PlanCache c2;
    (void)c1.getNegacyclic(basis.prime(0), 64);
    (void)c1.getNegacyclic(basis.prime(0), 64);
    (void)c2.getNegacyclic(basis.prime(0), 64);
    const engine::PlanCache::Stats st1 = c1.stats();
    const engine::PlanCache::Stats st2 = c2.stats();
    EXPECT_EQ(st1.hits, 1u);
    EXPECT_EQ(st1.misses, 1u);
    EXPECT_EQ(st1.builds, 1u);
    EXPECT_EQ(st2.hits, 0u);
    EXPECT_EQ(st2.misses, 1u);
    EXPECT_EQ(st2.builds, 1u);
    EXPECT_EQ(telemetry::total("plancache.builds") - builds0, 2u);
    EXPECT_EQ(telemetry::total("plancache.hits") - hits0, 1u);
    EXPECT_EQ(telemetry::total("plancache.build_ns"),
              st1.build_ns + st2.build_ns +
                  telemetry::counter("plancache.build_ns").value());
}

TEST(TelemetryRegistry, ConcurrentChurnAndSnapshotsEndWithExactTotal)
{
    // Threads create, bump and destroy same-name instances while
    // another thread snapshots: every snapshot sees a non-decreasing
    // total (an instance's value is live or folded, never both or
    // neither), and the final total is exact.
    const char* kName = "test.registry.churn";
    (void)telemetry::counter(kName); // listed before the reader starts
    const uint64_t base = telemetry::total(kName);
    constexpr int kThreads = 4;
    constexpr int kRounds = 200;
    std::atomic<bool> done{false};
    std::atomic<bool> went_back{false};
    std::thread reader([&] {
        int64_t last = 0;
        while (!done.load(std::memory_order_acquire)) {
            const int64_t now =
                snapshotValue(telemetry::snapshotJson(), kName);
            if (now < last)
                went_back.store(true, std::memory_order_relaxed);
            last = now;
        }
    });
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&, t] {
            telemetry::InstanceCounter keeper(kName);
            for (int r = 0; r < kRounds; ++r) {
                telemetry::InstanceCounter c(kName);
                c.add(static_cast<uint64_t>(r % 7 + 1));
                keeper.add(static_cast<uint64_t>(t + 1));
            }
        });
    }
    for (auto& w : writers)
        w.join();
    done.store(true, std::memory_order_release);
    reader.join();

    uint64_t expected = 0;
    for (int r = 0; r < kRounds; ++r)
        expected += static_cast<uint64_t>(r % 7 + 1) * kThreads;
    for (int t = 0; t < kThreads; ++t)
        expected += static_cast<uint64_t>(t + 1) * kRounds;
    EXPECT_FALSE(went_back.load());
    EXPECT_EQ(telemetry::total(kName) - base, expected);
    EXPECT_EQ(snapshotValue(telemetry::snapshotJson(), kName),
              static_cast<int64_t>(base + expected));
}

} // namespace
} // namespace mqx
