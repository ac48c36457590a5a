/**
 * @file
 * Memoized NTT plans keyed by (q, n).
 *
 * An NttPlan holds every twiddle table the kernels need (plan.h), and
 * NegacyclicTables the merged psi tables built on it; deriving them
 * costs O(n) modular multiplies plus one word-arithmetic Shoup
 * companion per entry (Modulus::shoupCompanion). The RNS pipeline
 * re-enters the same handful of (prime, size) pairs on every polymul —
 * once per residue channel per call — so the cache turns all but the
 * first derivation into a shared_ptr copy. Each engine::Engine owns its
 * own PlanCache (nothing is shared between engines); within an engine,
 * plans are immutable after construction, which is what makes sharing
 * them across its pool threads safe.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <shared_mutex>
#include <unordered_map>

#include "ntt/negacyclic.h"
#include "ntt/plan.h"
#include "ntt/prime.h"

namespace mqx {
namespace engine {

class PlanCache
{
  public:
    /**
     * The plan for (q, n), deriving and inserting it on first use.
     * Lookups take the mutex shared; a miss registers an in-flight slot
     * under the exclusive lock and then derives the plan with no lock
     * held, so each key is built exactly once — concurrent misses on
     * the same key wait on the builder's future while other keys build
     * in parallel. A failed build is not cached.
     *
     * @throws InvalidArgument if (q, n) cannot support an NTT.
     */
    std::shared_ptr<const ntt::NttPlan> get(const U128& q, size_t n);

    std::shared_ptr<const ntt::NttPlan>
    get(const ntt::NttPrime& prime, size_t n)
    {
        return get(prime.q, n);
    }

    /**
     * The negacyclic tables (plan + merged psi tables) for (q, n),
     * memoized the same way — so a warm polymul does no modular setup
     * math at all. Reuses the plan map: a tables miss that finds the
     * cyclic plan already cached builds only the psi tables.
     *
     * @throws InvalidArgument unless 2n | q - 1.
     */
    std::shared_ptr<const ntt::NegacyclicTables>
    getNegacyclic(const U128& q, size_t n);

    std::shared_ptr<const ntt::NegacyclicTables>
    getNegacyclic(const ntt::NttPrime& prime, size_t n)
    {
        return getNegacyclic(prime.q, n);
    }

    /**
     * Total cached (or in-flight) entries across BOTH maps: cyclic
     * plans plus negacyclic tables. A warm polymul caches two entries
     * per (q, n) — the plan and the tables built on it — and eviction
     * or reporting logic must see both.
     */
    size_t size() const;

    /** Distinct (q, n) pairs with a cached (or in-flight) cyclic plan. */
    size_t planCount() const;

    /** Distinct (q, n) pairs with cached (or in-flight) negacyclic tables. */
    size_t negacyclicCount() const;

    /**
     * Total bytes of precomputed-table storage held by the cache:
     * every ready plan's twiddleBytes() — which counts the compact
     * power tables AND their Shoup companions — plus every ready
     * negacyclic entry's tableBytes() (forward/inverse psi tables and
     * companions). In-flight entries (still building) contribute 0.
     * This is the real L2 footprint the paper's §5.4 discussion cares
     * about, not just the twiddle values.
     */
    size_t twiddleBytes() const;

    /**
     * Lookup counters (monotonic; for tests and bench reporting). Each
     * get()/getNegacyclic() call counts exactly one hit or miss.
     */
    uint64_t hits() const;
    uint64_t misses() const;

    /**
     * Lookup and build accounting in one consistent-enough snapshot
     * (relaxed reads; exact once the cache is quiescent). builds
     * counts actual derivations — a miss that loses the insert race
     * and waits on another thread's in-flight build is a miss but not
     * a build, so builds <= misses, and a warm second lookup of the
     * same key is one hit and zero new builds. build_ns is the total
     * wall time spent inside derivations (twiddle/psi table math);
     * the per-build latency distribution is the "plancache.build"
     * telemetry span.
     */
    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t builds = 0;
        uint64_t build_ns = 0;
    };
    Stats stats() const;

    /** Drop every cached plan (outstanding shared_ptrs stay valid). */
    void clear();

  private:
    struct Key
    {
        uint64_t q_hi;
        uint64_t q_lo;
        size_t n;

        bool
        operator==(const Key& o) const
        {
            return q_hi == o.q_hi && q_lo == o.q_lo && n == o.n;
        }
    };

    struct KeyHash
    {
        size_t
        operator()(const Key& k) const
        {
            // splitmix-style mix of the three words.
            uint64_t h = k.q_hi;
            for (uint64_t w : {k.q_lo, static_cast<uint64_t>(k.n)}) {
                h ^= w + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
            }
            return static_cast<size_t>(h);
        }
    };

    /**
     * Map values are shared_futures so a key under construction is
     * visible (and waitable) before its derivation finishes.
     */
    template <typename T>
    using Slot = std::shared_future<std::shared_ptr<const T>>;
    template <typename T>
    using SlotMap = std::unordered_map<Key, Slot<T>, KeyHash>;

    /**
     * Find-or-build @p key in @p map: exactly one caller becomes the
     * builder (runs @p build with no lock held, publishes through the
     * slot's promise); everyone else waits on the slot. @p hit reports
     * whether the key was already present. On a failed build the slot
     * is removed and the exception propagates (to waiters too).
     */
    template <typename T, typename Build>
    std::shared_ptr<const T> lookupOrBuild(SlotMap<T>& map, const Key& key,
                                           bool& hit, Build build);

    /** Plan lookup without touching the hit/miss counters. */
    std::shared_ptr<const ntt::NttPlan> planUncounted(const Key& key,
                                                      const U128& q);

    /**
     * Run @p build timed: bumps builds_/build_ns_ (and the global
     * plancache telemetry counters + "plancache.build" span) around the
     * derivation.
     */
    template <typename Build>
    auto timedBuild(Build build) -> decltype(build());

    mutable std::shared_mutex mutex_;
    SlotMap<ntt::NttPlan> plans_;
    SlotMap<ntt::NegacyclicTables> negacyclic_;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> builds_{0};
    std::atomic<uint64_t> build_ns_{0};
};

} // namespace engine
} // namespace mqx
