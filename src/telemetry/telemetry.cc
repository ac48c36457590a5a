/**
 * @file
 * Telemetry registry, snapshot/trace exporters, and the trace buffer.
 */
#include "telemetry/telemetry.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "core/env.h"

namespace mqx {
namespace telemetry {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct CounterEntry
{
    /** counter(name); also holds the values of retired instances. */
    Counter interned;
    /** Live InstanceCounters of this name (under the registry mutex). */
    std::vector<Counter*> live;

    uint64_t
    total() const
    {
        uint64_t sum = interned.value();
        for (const Counter* c : live)
            sum += c->value();
        return sum;
    }
};

namespace {

std::atomic<bool>&
enabledFlag()
{
    // MQX_TELEMETRY=0/off/OFF is the runtime kill switch.
    static const bool env_on = core::envSwitch("MQX_TELEMETRY", true);
    static std::atomic<bool> flag{compiledIn() && env_on};
    return flag;
}

/**
 * Name-interned counter entries and span sites. Entries are
 * unique_ptrs so the references handed out stay stable across
 * rehashes, and they are never erased; std::map keeps snapshot key
 * order deterministic.
 */
struct Registry
{
    mutable std::shared_mutex mutex;
    std::map<std::string, std::unique_ptr<CounterEntry>, std::less<>>
        counters;
    std::map<std::string, std::unique_ptr<SpanSite>, std::less<>> spans;
    std::map<uint32_t, std::string> thread_names;

    static Registry&
    instance()
    {
        static Registry* reg = new Registry(); // never destroyed: sites
                                               // outlive static dtors
        return *reg;
    }
};

template <typename Map, typename Make>
auto&
findOrCreate(Map& map, std::string_view name, std::shared_mutex& mutex,
             Make make)
{
    {
        std::shared_lock<std::shared_mutex> lock(mutex);
        auto it = map.find(name);
        if (it != map.end())
            return *it->second;
    }
    std::unique_lock<std::shared_mutex> lock(mutex);
    auto it = map.find(name);
    if (it == map.end())
        it = map.emplace(std::string(name), make()).first;
    return *it->second;
}

CounterEntry&
counterEntry(std::string_view name)
{
    Registry& reg = Registry::instance();
    return findOrCreate(reg.counters, name, reg.mutex,
                        [] { return std::make_unique<CounterEntry>(); });
}

// ---------------------------------------------------------------------------
// Trace buffer: a fixed ring claimed with one atomic fetch_add per
// event. Each slot flips a ready flag with release semantics after its
// payload is written, so the exporter (acquire) never reads a
// half-written event; events past capacity are counted and dropped.
// ---------------------------------------------------------------------------

struct TraceSlot
{
    const char* name = nullptr;
    uint32_t tid = 0;
    uint64_t start_ns = 0;
    uint64_t dur_ns = 0;
    std::atomic<uint32_t> ready{0};
};

struct TraceBuffer
{
    std::atomic<bool> on{false};
    std::atomic<size_t> next{0};
    std::atomic<uint64_t> dropped{0};
    std::vector<TraceSlot> slots;

    static TraceBuffer&
    instance()
    {
        static TraceBuffer* buf = new TraceBuffer();
        return *buf;
    }
};

uint32_t
laneId()
{
    static std::atomic<uint32_t> next{0};
    thread_local const uint32_t lane =
        next.fetch_add(1, std::memory_order_relaxed);
    return lane;
}

void
appendJsonEscaped(std::string& out, std::string_view s)
{
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += ' ';
            else
                out += c;
        }
    }
}

} // namespace

bool
enabled()
{
    return enabledFlag().load(std::memory_order_relaxed);
}

void
setEnabled(bool on)
{
    enabledFlag().store(compiledIn() && on, std::memory_order_relaxed);
}

Counter&
counter(std::string_view name)
{
    return counterEntry(name).interned;
}

InstanceCounter::InstanceCounter(std::string_view name)
    : entry_(&counterEntry(name))
{
    std::unique_lock<std::shared_mutex> lock(Registry::instance().mutex);
    entry_->live.push_back(this);
}

InstanceCounter::~InstanceCounter()
{
    // One critical section: a snapshot sees this value either live or
    // folded, never both or neither.
    std::unique_lock<std::shared_mutex> lock(Registry::instance().mutex);
    entry_->interned.add(value());
    std::vector<Counter*>& live = entry_->live;
    live.erase(std::find(live.begin(), live.end(), this));
}

uint64_t
total(std::string_view name)
{
    Registry& reg = Registry::instance();
    std::shared_lock<std::shared_mutex> lock(reg.mutex);
    auto it = reg.counters.find(name);
    return it == reg.counters.end() ? 0 : it->second->total();
}

SpanSite&
spanSite(std::string_view name)
{
    Registry& reg = Registry::instance();
    return findOrCreate(reg.spans, name, reg.mutex, [&] {
        return std::make_unique<SpanSite>(std::string(name));
    });
}

void
Histogram::mergeCounts(std::array<uint64_t, kBuckets>& out) const
{
    out.fill(0);
    for (const Shard& s : shards_) {
        for (size_t i = 0; i < kBuckets; ++i) {
            uint64_t c = s.buckets[i].load(std::memory_order_relaxed);
            if (c)
                out[i] += c;
        }
    }
}

HistogramSnapshot
Histogram::snapshot() const
{
    std::array<uint64_t, kBuckets> counts;
    mergeCounts(counts);
    HistogramSnapshot snap;
    for (uint64_t c : counts)
        snap.count += c;
    for (const Shard& s : shards_)
        snap.sum_ns += s.sum.load(std::memory_order_relaxed);
    snap.max_ns = max_.load(std::memory_order_relaxed);
    if (snap.count == 0)
        return snap;

    auto rank_value = [&](double q) -> uint64_t {
        uint64_t target = static_cast<uint64_t>(
            q * static_cast<double>(snap.count) + 0.9999999);
        target = std::max<uint64_t>(1, std::min(target, snap.count));
        uint64_t cum = 0;
        for (size_t i = 0; i < kBuckets; ++i) {
            cum += counts[i];
            if (cum >= target) {
                uint64_t lo, hi;
                bucketBounds(i, lo, hi);
                return hi;
            }
        }
        return snap.max_ns;
    };
    snap.p50_ns = rank_value(0.50);
    snap.p95_ns = rank_value(0.95);
    snap.p99_ns = rank_value(0.99);
    return snap;
}

uint64_t
Histogram::quantile(double q) const
{
    std::array<uint64_t, kBuckets> counts;
    mergeCounts(counts);
    uint64_t total = 0;
    for (uint64_t c : counts)
        total += c;
    if (total == 0)
        return 0;
    uint64_t target = static_cast<uint64_t>(
        q * static_cast<double>(total) + 0.9999999);
    target = std::max<uint64_t>(1, std::min(target, total));
    uint64_t cum = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
        cum += counts[i];
        if (cum >= target) {
            uint64_t lo, hi;
            bucketBounds(i, lo, hi);
            return hi;
        }
    }
    return max_.load(std::memory_order_relaxed);
}

void
Histogram::reset()
{
    for (Shard& s : shards_) {
        for (auto& b : s.buckets)
            b.store(0, std::memory_order_relaxed);
        s.sum.store(0, std::memory_order_relaxed);
    }
    max_.store(0, std::memory_order_relaxed);
}

void
enableTracing(size_t capacity)
{
    TraceBuffer& buf = TraceBuffer::instance();
    buf.on.store(false, std::memory_order_relaxed);
    buf.slots = std::vector<TraceSlot>(std::max<size_t>(1, capacity));
    buf.next.store(0, std::memory_order_relaxed);
    buf.dropped.store(0, std::memory_order_relaxed);
    buf.on.store(true, std::memory_order_release);
}

void
disableTracing()
{
    TraceBuffer::instance().on.store(false, std::memory_order_relaxed);
}

bool
tracingEnabled()
{
    return TraceBuffer::instance().on.load(std::memory_order_relaxed);
}

void
traceAppend(const char* name, uint64_t start_ns, uint64_t dur_ns)
{
    TraceBuffer& buf = TraceBuffer::instance();
    if (!buf.on.load(std::memory_order_acquire))
        return;
    const size_t idx = buf.next.fetch_add(1, std::memory_order_relaxed);
    if (idx >= buf.slots.size()) {
        buf.dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    TraceSlot& slot = buf.slots[idx];
    slot.name = name;
    slot.tid = laneId();
    slot.start_ns = start_ns;
    slot.dur_ns = dur_ns;
    slot.ready.store(1, std::memory_order_release);
}

void
setThreadName(std::string name)
{
    Registry& reg = Registry::instance();
    std::unique_lock<std::shared_mutex> lock(reg.mutex);
    reg.thread_names[laneId()] = std::move(name);
}

std::string
traceJson()
{
    TraceBuffer& buf = TraceBuffer::instance();
    Registry& reg = Registry::instance();
    std::string out;
    out += "{\"traceEvents\": [";
    bool first = true;
    {
        std::shared_lock<std::shared_mutex> lock(reg.mutex);
        for (const auto& [lane, name] : reg.thread_names) {
            if (!first)
                out += ",";
            first = false;
            out += "\n  {\"ph\": \"M\", \"pid\": 1, \"tid\": " +
                   std::to_string(lane) +
                   ", \"name\": \"thread_name\", \"args\": {\"name\": \"";
            appendJsonEscaped(out, name);
            out += "\"}}";
        }
    }
    const size_t used =
        std::min(buf.next.load(std::memory_order_relaxed), buf.slots.size());
    for (size_t i = 0; i < used; ++i) {
        const TraceSlot& slot = buf.slots[i];
        if (!slot.ready.load(std::memory_order_acquire))
            continue; // claimed but not yet written; skip
        if (!first)
            out += ",";
        first = false;
        // Chrome's "X" (complete) event; timestamps are microseconds
        // with the nanosecond remainder as three fractional digits.
        char stamp[64];
        std::snprintf(stamp, sizeof(stamp),
                      "\"ts\": %llu.%03llu, \"dur\": %llu.%03llu}",
                      static_cast<unsigned long long>(slot.start_ns / 1000),
                      static_cast<unsigned long long>(slot.start_ns % 1000),
                      static_cast<unsigned long long>(slot.dur_ns / 1000),
                      static_cast<unsigned long long>(slot.dur_ns % 1000));
        out += "\n  {\"ph\": \"X\", \"pid\": 1, \"tid\": " +
               std::to_string(slot.tid) + ", \"name\": \"";
        appendJsonEscaped(out, slot.name);
        out += "\", \"cat\": \"mqx\", ";
        out += stamp;
    }
    out += "\n], \"displayTimeUnit\": \"ns\", \"dropped_events\": " +
           std::to_string(buf.dropped.load(std::memory_order_relaxed)) +
           "}\n";
    return out;
}

std::string
snapshotJson()
{
    Registry& reg = Registry::instance();
    std::string out;
    out += "{\n  \"telemetry\": {\"compiled\": ";
    out += compiledIn() ? "true" : "false";
    out += ", \"enabled\": ";
    out += enabled() ? "true" : "false";
    out += "},\n  \"counters\": {";
    std::shared_lock<std::shared_mutex> lock(reg.mutex);
    bool first = true;
    for (const auto& [name, entry] : reg.counters) {
        if (!first)
            out += ",";
        first = false;
        out += "\n    \"";
        appendJsonEscaped(out, name);
        out += "\": " + std::to_string(entry->total());
    }
    out += "\n  },\n  \"spans\": {";
    first = true;
    for (const auto& [name, site] : reg.spans) {
        HistogramSnapshot s = site->hist.snapshot();
        if (!first)
            out += ",";
        first = false;
        out += "\n    \"";
        appendJsonEscaped(out, name);
        out += "\": {\"count\": " + std::to_string(s.count) +
               ", \"sum_ns\": " + std::to_string(s.sum_ns) +
               ", \"self_ns\": " + std::to_string(site->self_ns.value()) +
               ", \"p50_ns\": " + std::to_string(s.p50_ns) +
               ", \"p95_ns\": " + std::to_string(s.p95_ns) +
               ", \"p99_ns\": " + std::to_string(s.p99_ns) +
               ", \"max_ns\": " + std::to_string(s.max_ns) + "}";
    }
    out += "\n  }\n}\n";
    return out;
}

void
resetAll()
{
    Registry& reg = Registry::instance();
    std::shared_lock<std::shared_mutex> lock(reg.mutex);
    for (const auto& [name, entry] : reg.counters) {
        entry->interned.reset();
        for (Counter* c : entry->live)
            c->reset();
    }
    for (const auto& [name, site] : reg.spans) {
        site->hist.reset();
        site->self_ns.reset();
    }
    TraceBuffer& buf = TraceBuffer::instance();
    buf.next.store(0, std::memory_order_relaxed);
    buf.dropped.store(0, std::memory_order_relaxed);
    for (TraceSlot& slot : buf.slots)
        slot.ready.store(0, std::memory_order_relaxed);
}

} // namespace telemetry
} // namespace mqx
