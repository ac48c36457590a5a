/**
 * @file
 * Deterministic, seeded fault-injection harness (ISSUE 9 tentpole).
 *
 * Hot paths declare *named fault points* with MQX_FAULT_POINT("name")
 * (control-flow faults: thrown exception, allocation failure, stall) or
 * MQX_FAULT_POINT_DATA("name", span) (data faults: a single-bit flip in
 * the residue words the point just produced). In regular builds both
 * macros compile to `((void)0)` — zero code, zero branches. Configuring
 * with `-DMQX_FAULT_INJECTION=ON` defines MQX_FAULT_INJECTION_ENABLED=1
 * and the points become calls into the active FaultPlan, if any.
 *
 * Point naming convention: `<subsystem>.<site>` — e.g.
 * `plan_cache.alloc`, `workspace_pool.acquire`, `thread_pool.task`,
 * `rns.batch.pack`. Data points name the buffer they may corrupt:
 * `rns.polymul.out`, `rns.batch.out`, `rns.fma.out`, `rns.add.out`.
 *
 * The service layer (src/net/) adds BYTE points via
 * MQX_FAULT_POINT_BYTES("name", data, &len): `net.accept` (control),
 * `net.read` / `net.write` / `net.frame` (byte buffers). Byte points
 * accept two extra actions — FlipBit corrupts one seeded bit of the
 * buffer (torn/garbage frames), ShortRead truncates the length to a
 * seeded prefix (short reads, torn writes) — so socket-level chaos
 * (disconnects, stalled writes, slow-loris partial frames) replays
 * deterministically from a plan seed instead of depending on kernel
 * buffer timing.
 *
 * Determinism: whether a hit fires is a pure function of
 * (plan seed, point name, per-point hit index) — no wall clock, no
 * global RNG — so a workload replayed with the same seed on one thread
 * fires the same faults in the same places. Tests install a plan for a
 * scope with ScopedFaultInjection and read back per-point hit/fire
 * counts afterwards.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/residue_span.h"
#include "robust/status.h"

#ifndef MQX_FAULT_INJECTION_ENABLED
#define MQX_FAULT_INJECTION_ENABLED 0
#endif

namespace mqx {
namespace robust {

enum class FaultAction : uint8_t {
    /** Throw InjectedFault (StatusError, code FaultInjected). */
    Throw,
    /** Throw std::bad_alloc, as a failed allocation would. */
    BadAlloc,
    /** Sleep for FaultSpec::stall_ns (exercises deadlines). */
    Stall,
    /** Flip one seeded bit of the span at a data point; ignored (hit
     *  counted, never fires) at non-data points. */
    FlipBit,
    /** Truncate a byte point's length to a seeded prefix (short
     *  read / torn write); ignored at non-byte points. */
    ShortRead,
};

const char* faultActionName(FaultAction action);

/** What an armed point does when it fires. */
struct FaultSpec {
    FaultAction action = FaultAction::Throw;
    /** Per-hit firing probability in [0, 1]; 1.0 = every hit. */
    double probability = 1.0;
    /** Stop firing after this many fires (UINT64_MAX = unbounded). */
    uint64_t max_fires = UINT64_MAX;
    /** Never fire on the first @p skip_hits hits of the point. */
    uint64_t skip_hits = 0;
    /** Stall duration for FaultAction::Stall. */
    uint64_t stall_ns = 100000;
};

/** Exception thrown by FaultAction::Throw. */
class InjectedFault : public StatusError
{
  public:
    explicit InjectedFault(const std::string& point)
        : StatusError(Status(StatusCode::FaultInjected,
                             "fault point '" + point + "' fired"))
    {
    }
};

/** A seeded set of armed fault points; install via ScopedFaultInjection. */
class FaultPlan
{
  public:
    explicit FaultPlan(uint64_t seed = 0) : seed_(seed) {}

    FaultPlan&
    arm(std::string point, FaultSpec spec)
    {
        specs_[std::move(point)] = spec;
        return *this;
    }

    uint64_t seed() const { return seed_; }
    const std::map<std::string, FaultSpec, std::less<>>&
    specs() const
    {
        return specs_;
    }

  private:
    uint64_t seed_;
    std::map<std::string, FaultSpec, std::less<>> specs_;
};

struct FaultPointStats {
    uint64_t hits = 0;
    uint64_t fires = 0;
};

namespace detail {

struct ActivePlan;

/** Fault-point entry hooks (called by the macros; never call directly). */
void faultHit(const char* point);
void faultHitData(const char* point, DSpan data);
/** Byte-buffer flavour (src/net/): may flip bits in data or shrink *len. */
void faultHitBytes(const char* point, unsigned char* data, size_t* len);

} // namespace detail

/**
 * Installs @p plan process-wide for this object's lifetime. Exactly one
 * injection scope may be active at a time (a second construction
 * throws). The caller must quiesce all injected workloads before the
 * scope ends — points hit after destruction are simply inert, but stats
 * are only meaningful for hits inside the scope.
 */
class ScopedFaultInjection
{
  public:
    explicit ScopedFaultInjection(FaultPlan plan);
    ~ScopedFaultInjection();

    ScopedFaultInjection(const ScopedFaultInjection&) = delete;
    ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

    /** Hit/fire counts for one armed point (zeros if never hit). */
    FaultPointStats stats(const std::string& point) const;

    /** Hit/fire counts for every armed point, keyed by name. */
    std::map<std::string, FaultPointStats> allStats() const;

    /** Total fires across all points. */
    uint64_t totalFired() const;

  private:
    detail::ActivePlan* state_;
};

/**
 * Silences every fault point on the calling thread for this object's
 * lifetime: a point hit under the guard records no hit and never
 * fires. Guards nest. The engine opens one around a verify repair or a
 * batch fallback, so the recomputation runs the same channel bodies as
 * the op it repairs without an armed plan re-corrupting it. An empty
 * struct when fault injection is compiled out.
 */
#if MQX_FAULT_INJECTION_ENABLED
class ScopedFaultFree
{
  public:
    ScopedFaultFree();
    ~ScopedFaultFree();

    ScopedFaultFree(const ScopedFaultFree&) = delete;
    ScopedFaultFree& operator=(const ScopedFaultFree&) = delete;
};
#else
struct ScopedFaultFree
{
    // User-provided, so a guard the build never reads is not an
    // unused variable.
    ScopedFaultFree() {}
};
#endif

/** True when the tree was built with -DMQX_FAULT_INJECTION=ON. */
constexpr bool
faultInjectionCompiledIn()
{
    return MQX_FAULT_INJECTION_ENABLED != 0;
}

} // namespace robust
} // namespace mqx

#if MQX_FAULT_INJECTION_ENABLED
#define MQX_FAULT_POINT(name) ::mqx::robust::detail::faultHit(name)
#define MQX_FAULT_POINT_DATA(name, span)                                      \
    ::mqx::robust::detail::faultHitData(name, span)
#define MQX_FAULT_POINT_BYTES(name, data, len_ptr)                            \
    ::mqx::robust::detail::faultHitBytes(                                     \
        name, reinterpret_cast<unsigned char*>(data), len_ptr)
#else
#define MQX_FAULT_POINT(name) ((void)0)
#define MQX_FAULT_POINT_DATA(name, span) ((void)0)
#define MQX_FAULT_POINT_BYTES(name, data, len_ptr) ((void)0)
#endif
