/**
 * @file
 * Kernel-level telemetry: a process-wide registry of named counters
 * (interned by name, or owned by an object as an InstanceCounter) and
 * log-bucketed latency histograms, RAII timing spans with parent/child
 * attribution, and a bounded in-memory trace buffer exportable as
 * Chrome trace_event JSON.
 *
 * Design contract (the overhead budget the bench guard enforces):
 *
 *  - Counters are ALWAYS compiled. A bump is one relaxed atomic add on
 *    a per-thread shard (no cache-line ping-pong between pool workers),
 *    cheap enough that the layout/pool/plan-cache accounting stays on
 *    unconditionally — exactly like the old layout_metrics hooks.
 *  - Spans and histograms are the expensive part (two clock reads plus
 *    a histogram record per span). The MQX_SCOPED_SPAN instrumentation
 *    macro compiles to nothing when the build sets MQX_TELEMETRY=OFF
 *    (MQX_TELEMETRY_ENABLED=0), and when compiled in it still honours a
 *    runtime kill switch (setEnabled / the MQX_TELEMETRY env var), so a
 *    single binary can measure its own overhead.
 *  - Spans are placed at kernel-phase granularity (a whole transform, a
 *    whole point-wise pass, a transpose sweep) — microseconds of work
 *    per ~50 ns of instrumentation — never inside butterfly loops.
 *
 * Histogram quantile error: buckets are logarithmic with 2^kSubBits
 * linear sub-buckets per octave, so a reported quantile q satisfies
 * true_q <= q <= true_q + true_q/8 + 1 (12.5% relative, exact below 8).
 *
 * Attribution: spans nest through a thread-local stack; each span's
 * SELF time (duration minus same-thread child span durations) is
 * accumulated per site, so the self times of a span tree partition the
 * root's duration exactly — examples/telemetry_report.cpp sums them to
 * attribute a workload's wall time to named phases.
 */
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#ifndef MQX_TELEMETRY_ENABLED
#define MQX_TELEMETRY_ENABLED 1
#endif

namespace mqx {
namespace telemetry {

/** Monotonic nanoseconds (std::chrono::steady_clock). */
uint64_t nowNs();

/** True when the span/histogram layer was compiled in (MQX_TELEMETRY). */
constexpr bool
compiledIn()
{
    return MQX_TELEMETRY_ENABLED != 0;
}

/**
 * Runtime recording switch for the span layer (counters ignore it —
 * they are the always-on accounting tier). Defaults to on unless the
 * MQX_TELEMETRY environment variable is "0" or "off".
 */
bool enabled();
void setEnabled(bool on);

/** Small power-of-two shard count; one relaxed slot per thread group. */
constexpr size_t kCounterShards = 8;

/** Stable per-thread shard index in [0, kCounterShards). */
inline unsigned
threadShard()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned shard =
        next.fetch_add(1, std::memory_order_relaxed) &
        (kCounterShards - 1);
    return shard;
}

/**
 * A named monotonic counter, sharded across cache lines so concurrent
 * pool workers never contend on one atomic. value() sums the shards;
 * reset() is for single-threaded test/bench sections only.
 */
class Counter
{
  public:
    void
    add(uint64_t v)
    {
        shards_[threadShard()].v.fetch_add(v, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        uint64_t total = 0;
        for (const Shard& s : shards_)
            total += s.v.load(std::memory_order_relaxed);
        return total;
    }

    void
    reset()
    {
        for (Shard& s : shards_)
            s.v.store(0, std::memory_order_relaxed);
    }

  private:
    struct alignas(64) Shard
    {
        std::atomic<uint64_t> v{0};
    };
    std::array<Shard, kCounterShards> shards_{};
};

/** A name's registry entry (telemetry.cc): counter(name) + live instances. */
struct CounterEntry;

/**
 * A Counter owned by one object (a pool, a cache, a server) and
 * registered under @p name for as long as it lives, so the owner's
 * Stats read it directly and the snapshot sees the same number: each
 * event is one add. Several live instances may share a name. The
 * destructor folds the value into counter(name), so per-name process
 * totals stay monotonic when owners come and go. Registration and
 * retirement take the registry lock; add() never does. Not copyable or
 * movable (the registry holds its address).
 */
class InstanceCounter : public Counter
{
  public:
    explicit InstanceCounter(std::string_view name);
    ~InstanceCounter();

    InstanceCounter(const InstanceCounter&) = delete;
    InstanceCounter& operator=(const InstanceCounter&) = delete;

  private:
    CounterEntry* entry_;
};

/** Aggregated view of one histogram (all quantiles in ns). */
struct HistogramSnapshot
{
    uint64_t count = 0;
    uint64_t sum_ns = 0;
    uint64_t max_ns = 0;
    uint64_t p50_ns = 0;
    uint64_t p95_ns = 0;
    uint64_t p99_ns = 0;
};

/**
 * Log-bucketed latency histogram: 8 linear sub-buckets per power of
 * two, covering the whole uint64 nanosecond range in 496 buckets.
 * Recording is one relaxed add into a per-thread-shard bucket plus a
 * relaxed max update; quantiles are computed on demand by merging the
 * shards (snapshot-time cost, not hot-path cost).
 */
class Histogram
{
  public:
    static constexpr unsigned kSubBits = 3; ///< 8 sub-buckets per octave
    static constexpr unsigned kSub = 1u << kSubBits;
    // Small values 0..kSub-1 get exact buckets, then each msb in
    // [kSubBits, 63] contributes kSub buckets: indices run up to
    // ((63 - kSubBits + 1) << kSubBits) | (kSub - 1) = 495.
    static constexpr size_t kBuckets = ((64 - kSubBits) << kSubBits) + kSub;
    static constexpr size_t kShards = 4;

    /** Bucket holding @p v; continuous, exact for v < 8. */
    static size_t
    bucketIndex(uint64_t v)
    {
        if (v < kSub)
            return static_cast<size_t>(v);
        const unsigned msb =
            63u - static_cast<unsigned>(__builtin_clzll(v));
        const unsigned shift = msb - kSubBits;
        return (static_cast<size_t>(msb - kSubBits + 1) << kSubBits) |
               static_cast<size_t>((v >> shift) & (kSub - 1));
    }

    /** Inclusive [lower, upper] value range of bucket @p i. */
    static void
    bucketBounds(size_t i, uint64_t& lower, uint64_t& upper)
    {
        if (i < kSub) {
            lower = upper = static_cast<uint64_t>(i);
            return;
        }
        const uint64_t block = i >> kSubBits; // >= 1
        const uint64_t sub = i & (kSub - 1);
        const unsigned msb = static_cast<unsigned>(block) + kSubBits - 1;
        const uint64_t width = uint64_t{1} << (msb - kSubBits);
        lower = (uint64_t{1} << msb) + sub * width;
        upper = lower + width - 1;
    }

    void
    record(uint64_t ns)
    {
        Shard& s = shards_[threadShard() & (kShards - 1)];
        s.buckets[bucketIndex(ns)].fetch_add(1, std::memory_order_relaxed);
        s.sum.fetch_add(ns, std::memory_order_relaxed);
        uint64_t prev = max_.load(std::memory_order_relaxed);
        while (ns > prev &&
               !max_.compare_exchange_weak(prev, ns,
                                           std::memory_order_relaxed)) {
        }
    }

    /** Merge the shards and derive count/sum/max/p50/p95/p99. */
    HistogramSnapshot snapshot() const;

    /**
     * Upper bound of the bucket holding the rank-ceil(q*count) value
     * (the quantile convention the snapshot fields use). 0 when empty.
     */
    uint64_t quantile(double q) const;

    /** Zero every bucket (single-threaded sections only). */
    void reset();

  private:
    struct alignas(64) Shard
    {
        std::array<std::atomic<uint64_t>, kBuckets> buckets{};
        std::atomic<uint64_t> sum{0};
    };

    void mergeCounts(std::array<uint64_t, kBuckets>& out) const;

    std::array<Shard, kShards> shards_{};
    std::atomic<uint64_t> max_{0};
};

/**
 * One instrumentation site: the latency histogram plus the accumulated
 * SELF time (duration minus same-thread child span durations). Sites
 * are interned in the registry by name and never deallocated, so a
 * function-local static reference is safe from any thread.
 */
struct SpanSite
{
    explicit SpanSite(std::string site_name)
        : name(std::move(site_name))
    {
    }
    const std::string name;
    Histogram hist;
    Counter self_ns;
};

/**
 * The registry entry points: find-or-create by name. References stay
 * valid for the life of the process (entries are never removed; reset
 * zeroes values, not identities).
 */
Counter& counter(std::string_view name);
SpanSite& spanSite(std::string_view name);

/**
 * The process total for @p name, as snapshotJson() reports it:
 * counter(name) (which holds the retired instances' values) plus every
 * live InstanceCounter of that name. 0 for a name never registered.
 */
uint64_t total(std::string_view name);

/** Append one completed span to the trace buffer (no-op when off). */
void traceAppend(const char* name, uint64_t start_ns, uint64_t dur_ns);

/**
 * RAII timing span. Construction snapshots the clock and pushes onto
 * the thread-local span stack; destruction records the duration into
 * the site histogram, the self time (duration minus child durations)
 * into the site self counter, charges the duration to the parent span,
 * and appends a trace event when tracing is on. When recording is
 * disabled at runtime the constructor does a single atomic load and
 * nothing else. Use via MQX_SCOPED_SPAN so MQX_TELEMETRY=OFF builds
 * compile the whole thing away.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(SpanSite& site)
    {
        if (!enabled())
            return;
        site_ = &site;
        parent_ = tl_current;
        tl_current = this;
        start_ = nowNs();
    }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    ~ScopedSpan()
    {
        if (!site_)
            return;
        const uint64_t dur = nowNs() - start_;
        site_->hist.record(dur);
        site_->self_ns.add(dur > child_ns_ ? dur - child_ns_ : 0);
        if (parent_)
            parent_->child_ns_ += dur;
        tl_current = parent_;
        traceAppend(site_->name.c_str(), start_, dur);
    }

  private:
    inline static thread_local ScopedSpan* tl_current = nullptr;

    SpanSite* site_ = nullptr;
    ScopedSpan* parent_ = nullptr;
    uint64_t start_ = 0;
    uint64_t child_ns_ = 0;
};

/**
 * Bounded in-memory tracing. enableTracing() allocates a fixed ring of
 * @p capacity events and starts recording (events past capacity are
 * dropped, never reallocated); call it before the workload, not while
 * spans are running. traceJson() renders the Chrome trace_event format
 * that chrome://tracing and Perfetto load, one lane per thread.
 */
void enableTracing(size_t capacity);
void disableTracing();
bool tracingEnabled();
std::string traceJson();

/** Name this thread's trace lane (pool workers self-register). */
void setThreadName(std::string name);

/**
 * One JSON document with every registered counter and span site:
 * {"telemetry": {...}, "counters": {name: total(name)},
 *  "spans": {name: {count, sum_ns, self_ns, p50_ns, p95_ns, p99_ns,
 *                   max_ns}}}.
 * Keys are sorted, so snapshots diff cleanly.
 */
std::string snapshotJson();

/**
 * Zero every counter (interned and live instances alike, so owners'
 * Stats restart from 0 too), histogram, and the trace buffer
 * (tests/bench).
 */
void resetAll();

} // namespace telemetry
} // namespace mqx

/**
 * Instrumentation macro: a named RAII span, compiled away entirely in
 * MQX_TELEMETRY=OFF builds. The site lookup happens once per call site
 * (function-local static), so steady-state cost is the two clock reads
 * plus the histogram record.
 */
#if MQX_TELEMETRY_ENABLED
#define MQX_SCOPED_SPAN(var, name_literal)                                   \
    static ::mqx::telemetry::SpanSite& var##_site =                          \
        ::mqx::telemetry::spanSite(name_literal);                            \
    ::mqx::telemetry::ScopedSpan var(var##_site)
#else
#define MQX_SCOPED_SPAN(var, name_literal) ((void)0)
#endif
