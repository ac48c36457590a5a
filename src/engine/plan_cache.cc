/**
 * @file
 * Plan-cache implementation.
 */
#include "engine/plan_cache.h"

#include <chrono>
#include <mutex>

#include "robust/fault_injection.h"

namespace mqx {
namespace engine {

std::shared_ptr<const ntt::NegacyclicTables>
PlanCache::getNegacyclic(const U128& q, size_t n)
{
    const Key key{q.hi, q.lo, n};
    // Counted once the entry is in hand, so a lookup that ends in a
    // failed build counts as neither.
    auto counted = [this](bool hit,
                          std::shared_ptr<const ntt::NegacyclicTables> t) {
        (hit ? hits_ : misses_).add(1);
        return t;
    };
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        auto it = tables_.find(key);
        if (it != tables_.end()) {
            Slot slot = it->second;
            lock.unlock();
            // Blocks only while the builder runs.
            return counted(true, slot.get());
        }
    }
    std::promise<std::shared_ptr<const ntt::NegacyclicTables>> promise;
    {
        std::unique_lock<std::shared_mutex> lock(mutex_);
        auto it = tables_.find(key);
        if (it != tables_.end()) {
            // Lost the insert race: wait on the winner's slot.
            Slot slot = it->second;
            lock.unlock();
            return counted(true, slot.get());
        }
        tables_.emplace(key, promise.get_future().share());
    }
    // This caller is the builder; derivation runs with no lock held so
    // other keys can look up and build concurrently.
    try {
        MQX_SCOPED_SPAN(span, "plancache.build");
        const uint64_t t0 = telemetry::nowNs();
        // An injected failure exercises the failed-slot-erase path (the
        // miss is NOT cached, so the next caller rebuilds cleanly).
        MQX_FAULT_POINT("plan_cache.alloc");
        auto tables =
            std::make_shared<const ntt::NegacyclicTables>(Modulus(q), n);
        build_ns_.add(telemetry::nowNs() - t0);
        builds_.add(1);
        promise.set_value(tables);
        return counted(false, std::move(tables));
    } catch (...) {
        {
            std::unique_lock<std::shared_mutex> lock(mutex_);
            tables_.erase(key); // don't cache the failure
        }
        promise.set_exception(std::current_exception());
        throw;
    }
}

size_t
PlanCache::size() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return tables_.size();
}

size_t
PlanCache::twiddleBytes() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    size_t bytes = 0;
    for (const auto& [key, slot] : tables_) {
        if (slot.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready)
            continue;
        if (auto tables = slot.get()) {
            bytes += tables->tableBytes();
            if (tables->plan().twiddlesBuilt())
                bytes += tables->plan().twiddleBytes();
        }
    }
    return bytes;
}

PlanCache::Stats
PlanCache::stats() const
{
    return Stats{hits_.value(), misses_.value(), builds_.value(),
                 build_ns_.value()};
}

void
PlanCache::clear()
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    tables_.clear();
}

} // namespace engine
} // namespace mqx
