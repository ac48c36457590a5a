#include "robust/fault_injection.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <new>
#include <string_view>
#include <thread>

#include "bench_util/rng.h"
#include "core/config.h"
#include "telemetry/telemetry.h"

namespace mqx {
namespace robust {

namespace {

telemetry::Counter&
armedCounter()
{
    static telemetry::Counter& c = telemetry::counter("fault.armed");
    return c;
}

telemetry::Counter&
firedCounter()
{
    static telemetry::Counter& c = telemetry::counter("fault.fired");
    return c;
}

uint64_t
fnv1a(std::string_view s)
{
    uint64_t h = 1469598103934665603ull;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

const char*
faultActionName(FaultAction action)
{
    switch (action) {
    case FaultAction::Throw:
        return "throw";
    case FaultAction::BadAlloc:
        return "bad_alloc";
    case FaultAction::Stall:
        return "stall";
    case FaultAction::FlipBit:
        return "flip_bit";
    case FaultAction::ShortRead:
        return "short_read";
    }
    return "unknown";
}

namespace detail {

struct Entry {
    FaultSpec spec;
    uint64_t name_hash = 0;
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> fires{0};
};

struct ActivePlan {
    uint64_t seed = 0;
    std::map<std::string, Entry, std::less<>> entries;
};

namespace {

/** The installed plan; null when no ScopedFaultInjection is live. */
std::atomic<ActivePlan*> g_active{nullptr};

/**
 * Threads currently inside a fault point. Pinned BEFORE the g_active
 * load, so any thread holding a plan pointer keeps this nonzero until
 * it is done; ~ScopedFaultInjection clears g_active and then waits for
 * zero before freeing the plan. A pin after the clear sees null and
 * unpins without touching the plan. seq_cst pairs with the destructor's
 * store-then-load: without it the g_active load could hoist above the
 * pin (or the destructor's count read above its clear) and the plan
 * could be freed mid-use.
 */
std::atomic<uint64_t> g_readers{0};

/** Open ScopedFaultFree guards on this thread; > 0 silences its points. */
thread_local unsigned t_fault_free_depth = 0;

/** RAII pin; survives the Throw/BadAlloc exits out of a fault point. */
struct PlanPin {
    ActivePlan* plan;

    PlanPin()
    {
        g_readers.fetch_add(1, std::memory_order_seq_cst);
        plan = g_active.load(std::memory_order_seq_cst);
        if (!plan)
            g_readers.fetch_sub(1, std::memory_order_release);
    }
    ~PlanPin()
    {
        if (plan)
            g_readers.fetch_sub(1, std::memory_order_release);
    }
    PlanPin(const PlanPin&) = delete;
    PlanPin& operator=(const PlanPin&) = delete;
};

/**
 * Decide whether hit number @p hit of @p e fires, claiming a slot
 * against max_fires. Pure in (seed, name_hash, hit) apart from the
 * max_fires claim, which keeps total fires exact under concurrency.
 * @p rng is left seeded for the fire's payload (bit choice).
 */
bool
claimFire(const ActivePlan& plan, Entry& e, uint64_t hit, SplitMix64& rng)
{
    const FaultSpec& spec = e.spec;
    if (hit < spec.skip_hits)
        return false;
    rng = SplitMix64(plan.seed ^ e.name_hash ^
                     (hit + 1) * 0x9e3779b97f4a7c15ull);
    if (spec.probability < 1.0) {
        const double u =
            static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
        if (u >= spec.probability)
            return false;
    }
    const uint64_t prev = e.fires.fetch_add(1, std::memory_order_relaxed);
    if (prev >= spec.max_fires) {
        e.fires.fetch_sub(1, std::memory_order_relaxed);
        return false;
    }
    firedCounter().add(1);
    return true;
}

[[noreturn]] void
throwFor(FaultAction action, const std::string& point)
{
    if (action == FaultAction::BadAlloc)
        throw std::bad_alloc();
    throw InjectedFault(point);
}

} // namespace

void
faultHit(const char* point)
{
    if (t_fault_free_depth > 0)
        return;
    PlanPin pin;
    ActivePlan* plan = pin.plan;
    if (!plan)
        return;
    auto it = plan->entries.find(std::string_view(point));
    if (it == plan->entries.end())
        return;
    Entry& e = it->second;
    const uint64_t hit = e.hits.fetch_add(1, std::memory_order_relaxed);
    // FlipBit/ShortRead need a buffer; at a control point they stay inert.
    if (e.spec.action == FaultAction::FlipBit ||
        e.spec.action == FaultAction::ShortRead)
        return;
    SplitMix64 rng(0);
    if (!claimFire(*plan, e, hit, rng))
        return;
    if (e.spec.action == FaultAction::Stall) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(e.spec.stall_ns));
        return;
    }
    throwFor(e.spec.action, it->first);
}

void
faultHitData(const char* point, DSpan data)
{
    if (t_fault_free_depth > 0)
        return;
    PlanPin pin;
    ActivePlan* plan = pin.plan;
    if (!plan)
        return;
    auto it = plan->entries.find(std::string_view(point));
    if (it == plan->entries.end())
        return;
    Entry& e = it->second;
    const uint64_t hit = e.hits.fetch_add(1, std::memory_order_relaxed);
    // ShortRead needs a length to shrink; at a residue data point it is
    // inert (hit counted, never fires), like FlipBit at control points.
    if (e.spec.action == FaultAction::ShortRead)
        return;
    SplitMix64 rng(0);
    if (!claimFire(*plan, e, hit, rng))
        return;
    switch (e.spec.action) {
    case FaultAction::FlipBit: {
        if (data.n == 0)
            return;
        // Seeded choice over all 128 bits of every residue word.
        const uint64_t word = rng.next() % (2 * data.n);
        const uint64_t bit = rng.next() % 64;
        uint64_t* lane = word < data.n ? data.lo : data.hi;
        lane[word % data.n] ^= uint64_t{1} << bit;
        return;
    }
    case FaultAction::Stall:
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(e.spec.stall_ns));
        return;
    case FaultAction::ShortRead:
        return; // unreachable (filtered above); keeps the switch total
    case FaultAction::Throw:
    case FaultAction::BadAlloc:
        throwFor(e.spec.action, it->first);
    }
}

void
faultHitBytes(const char* point, unsigned char* data, size_t* len)
{
    if (t_fault_free_depth > 0)
        return;
    PlanPin pin;
    ActivePlan* plan = pin.plan;
    if (!plan)
        return;
    auto it = plan->entries.find(std::string_view(point));
    if (it == plan->entries.end())
        return;
    Entry& e = it->second;
    const uint64_t hit = e.hits.fetch_add(1, std::memory_order_relaxed);
    SplitMix64 rng(0);
    if (!claimFire(*plan, e, hit, rng))
        return;
    switch (e.spec.action) {
    case FaultAction::FlipBit: {
        if (*len == 0)
            return;
        const uint64_t byte = rng.next() % *len;
        data[byte] ^= static_cast<unsigned char>(
            1u << (rng.next() % 8));
        return;
    }
    case FaultAction::ShortRead: {
        // Truncate to a seeded strict prefix: the peer sees a torn
        // frame (write side) or the decoder a partial one (read side).
        if (*len == 0)
            return;
        *len = static_cast<size_t>(rng.next() % *len);
        return;
    }
    case FaultAction::Stall:
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(e.spec.stall_ns));
        return;
    case FaultAction::Throw:
    case FaultAction::BadAlloc:
        throwFor(e.spec.action, it->first);
    }
}

} // namespace detail

#if MQX_FAULT_INJECTION_ENABLED
ScopedFaultFree::ScopedFaultFree()
{
    ++detail::t_fault_free_depth;
}

ScopedFaultFree::~ScopedFaultFree()
{
    --detail::t_fault_free_depth;
}
#endif

ScopedFaultInjection::ScopedFaultInjection(FaultPlan plan) : state_(nullptr)
{
    auto holder = std::make_unique<detail::ActivePlan>();
    holder->seed = plan.seed();
    for (const auto& [name, spec] : plan.specs()) {
        detail::Entry& e = holder->entries[name];
        e.spec = spec;
        e.name_hash = fnv1a(name);
    }
    detail::ActivePlan* expected = nullptr;
    checkArg(detail::g_active.compare_exchange_strong(
                 expected, holder.get(), std::memory_order_acq_rel,
                 std::memory_order_acquire),
             "ScopedFaultInjection: another fault-injection scope is active");
    state_ = holder.release();
    armedCounter().add(static_cast<uint64_t>(plan.specs().size()));
}

ScopedFaultInjection::~ScopedFaultInjection()
{
    // Disarm, then drain: a fault point that pinned before the clear
    // may still hold the plan pointer; freeing it out from under that
    // thread is a use-after-free. The wait is bounded by the longest
    // single fault action (a Stall sleeps stall_ns at most).
    detail::g_active.store(nullptr, std::memory_order_seq_cst);
    while (detail::g_readers.load(std::memory_order_acquire) != 0)
        std::this_thread::yield();
    delete state_;
}

FaultPointStats
ScopedFaultInjection::stats(const std::string& point) const
{
    auto it = state_->entries.find(point);
    if (it == state_->entries.end())
        return {};
    return {it->second.hits.load(std::memory_order_relaxed),
            it->second.fires.load(std::memory_order_relaxed)};
}

std::map<std::string, FaultPointStats>
ScopedFaultInjection::allStats() const
{
    std::map<std::string, FaultPointStats> out;
    for (const auto& [name, e] : state_->entries) {
        out[name] = {e.hits.load(std::memory_order_relaxed),
                     e.fires.load(std::memory_order_relaxed)};
    }
    return out;
}

uint64_t
ScopedFaultInjection::totalFired() const
{
    uint64_t total = 0;
    for (const auto& [name, e] : state_->entries)
        total += e.fires.load(std::memory_order_relaxed);
    return total;
}

} // namespace robust
} // namespace mqx
