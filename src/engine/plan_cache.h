/**
 * @file
 * Memoized negacyclic tables keyed by (q, n).
 *
 * One NegacyclicTables entry per (q, n) holds every table a channel op
 * needs: the cyclic NttPlan it builds and owns (plan.h) and the merged
 * psi tables on top of it. Deriving an entry costs O(n) modular
 * multiplies plus one word-arithmetic Shoup companion per table word
 * (Modulus::shoupCompanion). The RNS pipeline re-enters the same
 * handful of (prime, size) pairs on every polymul — once per residue
 * channel per call — so the cache turns all but the first derivation
 * into a shared_ptr copy. Each engine::Engine owns its own PlanCache
 * (nothing is shared between engines); within an engine, entries are
 * immutable after construction, which is what makes sharing them
 * across its pool threads safe.
 */
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <shared_mutex>
#include <unordered_map>

#include "ntt/negacyclic.h"
#include "ntt/prime.h"
#include "telemetry/telemetry.h"

namespace mqx {
namespace engine {

class PlanCache
{
  public:
    /**
     * The negacyclic tables (plan + merged psi tables) for (q, n),
     * deriving and inserting them on first use, so a warm polymul does
     * no modular setup math at all. Lookups take the mutex shared; a
     * miss registers an in-flight slot under the exclusive lock and
     * then derives the entry with no lock held, so each key is built
     * exactly once — concurrent misses on the same key wait on the
     * builder's future while other keys build in parallel. A failed
     * build is not cached.
     *
     * @throws InvalidArgument unless q is prime, n a power of two and
     * 2n | q - 1.
     */
    std::shared_ptr<const ntt::NegacyclicTables>
    getNegacyclic(const U128& q, size_t n);

    std::shared_ptr<const ntt::NegacyclicTables>
    getNegacyclic(const ntt::NttPrime& prime, size_t n)
    {
        return getNegacyclic(prime.q, n);
    }

    /** Cached (or in-flight) entries: one per distinct (q, n). */
    size_t size() const;

    /**
     * Total bytes of precomputed-table storage held by the cache: for
     * every ready entry, its tableBytes() (the merged psi table and its
     * Shoup companions), plus its plan's twiddleBytes() — the cyclic
     * tables AND their companions — once a cyclic transform has built
     * them (NttPlan::twiddlesBuilt(); the Engine's ops never do).
     * In-flight entries (still building) contribute 0. This is the real
     * L2 footprint the paper's §5.4 discussion cares about, not just
     * the twiddle values.
     */
    size_t twiddleBytes() const;

    /**
     * Lookup and build accounting in one consistent-enough snapshot
     * (relaxed reads; exact once the cache is quiescent). Each
     * getNegacyclic() call counts exactly one hit or miss. builds
     * counts actual derivations, one per key — a miss that loses the
     * insert race and waits on another thread's in-flight build is a
     * miss but not a build, so builds <= misses, and a warm second
     * lookup of the same key is one hit and zero new builds. build_ns
     * is the total wall time spent inside derivations; the per-build
     * latency distribution is the "plancache.build" telemetry span.
     * The fields are views over this cache's telemetry counters
     * (plancache.hits/misses/builds/build_ns).
     */
    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t builds = 0;
        uint64_t build_ns = 0;
    };
    Stats stats() const;

    /** Drop every cached entry (outstanding shared_ptrs stay valid). */
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
    using Slot =
        std::shared_future<std::shared_ptr<const ntt::NegacyclicTables>>;

    mutable std::shared_mutex mutex_;
    std::unordered_map<Key, Slot, KeyHash> tables_;
    telemetry::InstanceCounter hits_{"plancache.hits"};
    telemetry::InstanceCounter misses_{"plancache.misses"};
    telemetry::InstanceCounter builds_{"plancache.builds"};
    telemetry::InstanceCounter build_ns_{"plancache.build_ns"};
};

} // namespace engine
} // namespace mqx
