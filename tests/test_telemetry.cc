/**
 * @file
 * Telemetry subsystem tests: histogram bucket math against a sorted
 * oracle, sharded counters and concurrent recording (the TSan target),
 * span nesting/self-time attribution, and well-formedness of the two
 * JSON exports (snapshot and Chrome trace).
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

} // namespace
} // namespace mqx
