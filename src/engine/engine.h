/**
 * @file
 * The parallel execution engine: thread pool + plan cache + resolved
 * backend behind one facade.
 *
 * The paper closes the per-core gap between CPUs and specialized
 * hardware (Sections 3-5); this layer goes after the other CPU
 * advantage, core count. RNS residue channels are independent by
 * construction, so every channel-wise op (`rns/rns.h`) fans out across
 * the pool, and a batch API runs many independent polymuls as one flat
 * task set — the same independent-lane scheduling that accelerators
 * like CRYPTONITE exploit, on commodity cores.
 *
 * Engine is the one execution path for channel ops: a serial caller
 * builds Engine(backend, 1), whose pool runs every task inline on the
 * caller, in channel order. Channel results never depend on execution
 * order, so any thread count is bit-identical to that serial run.
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/backend.h"
#include "engine/plan_cache.h"
#include "engine/thread_pool.h"
#include "rns/rns.h"
#include "robust/cancel.h"
#include "robust/verify.h"

namespace mqx {
namespace engine {

struct EngineOptions
{
    /** Kernel tier for every channel op; must be available. */
    Backend backend = bestBackend();
    /** Pool width; 0 = MQX_THREADS env, else hardware concurrency. */
    size_t threads = 0;
    /**
     * Integrity verification (robust/verify.h): with a non-Off policy,
     * checked ops run a Freivalds evaluation identity per channel after
     * the kernels. A failing channel is rerun through the op's own
     * per-channel body, with fault points silenced and scratch leased
     * from a repair pool apart from the engine's, up to
     * robust::kMaxRepairRetries times, then robust::StatusError with
     * DataCorruption. All checks of one (q, n) shape share the cached
     * evaluation point for robust::kEvalPointSeed — the point where any
     * single flipped word is detected deterministically. Off by
     * default: zero overhead.
     */
    robust::VerifyOptions verify;
    /**
     * Cap on live negacyclic workspace engines; 0 = unbounded
     * (default, the library behaviour). The service layer bounds this
     * so overload waits on the pool — cancel-aware — instead of
     * growing workspace memory without limit.
     */
    size_t max_workspaces = 0;
};

class Engine
{
  public:
    explicit Engine(EngineOptions options);
    Engine() : Engine(EngineOptions{}) {}
    Engine(Backend backend, size_t threads = 0)
        : Engine(EngineOptions{backend, threads, {}})
    {
    }

    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    Backend backend() const { return backend_; }
    size_t threads() const { return pool_.threadCount(); }

    ThreadPool& pool() { return pool_; }
    PlanCache& planCache() { return plan_cache_; }

    /**
     * Recycled per-task transform workspaces: every channel task leases
     * a NegacyclicEngine (buffers + tables binding) from this pool, so
     * a warmed-up engine performs zero heap allocations per op — the
     * steady state is a mutex pop, not four length-n buffer
     * allocations. Grows to the peak concurrent task count and stays
     * there.
     */
    ntt::NegacyclicWorkspacePool& workspacePool() { return workspaces_; }

    /** Verification policy this engine runs with (EngineOptions). */
    const robust::VerifyOptions& verifyOptions() const { return verify_; }

    /**
     * Every operation below has a value-returning convenience form and
     * an `*Into` form writing into a caller-preallocated destination
     * (matching basis/length, constructed in the result form). The Into
     * forms are the allocation-free steady-state path; the value forms
     * simply construct the destination and delegate.
     *
     * Cancellation: the *Into forms (and polymulNegacyclicBatch) take
     * an optional robust::CancelToken. When supplied, it is checked on
     * entry, at every pool task boundary, while a channel waits for a
     * workspace lease, and between NTT stages of transform-bearing
     * channels (an interleaved batch tile of il products is checked
     * before each of its packed forwards, its point-wise product and
     * its packed inverse); a tripped token (explicit cancel or
     * expired deadline) aborts the op with robust::StatusError, with
     * all workspace leases released and the pool consistent. The
     * destination's contents are unspecified after an abort.
     */

    /**
     * c = a + b: channels fanned out across the pool. Valid in either
     * form (the NTT is linear), but the operands must match; the result
     * carries their form.
     */
    rns::RnsPolynomial add(const rns::RnsPolynomial& a,
                           const rns::RnsPolynomial& b);
    void addInto(const rns::RnsPolynomial& a, const rns::RnsPolynomial& b,
                 rns::RnsPolynomial& c,
                 const robust::CancelToken* cancel = nullptr);

    /** c = a .* b (point-wise; same-form operands), channels fanned out. */
    rns::RnsPolynomial mul(const rns::RnsPolynomial& a,
                           const rns::RnsPolynomial& b);
    void mulInto(const rns::RnsPolynomial& a, const rns::RnsPolynomial& b,
                 rns::RnsPolynomial& c,
                 const robust::CancelToken* cancel = nullptr);

    /**
     * a * b mod (x^n + 1, Q) for Coeff-form operands: each channel runs
     * the merged negacyclic forward + point-wise + inverse pipeline on a
     * pool thread, with its NegacyclicTables (plan included) taken from
     * the cache and the scratch leased from the workspace pool.
     */
    rns::RnsPolynomial polymulNegacyclic(const rns::RnsPolynomial& a,
                                         const rns::RnsPolynomial& b);
    void polymulNegacyclicInto(const rns::RnsPolynomial& a,
                               const rns::RnsPolynomial& b,
                               rns::RnsPolynomial& c,
                               const robust::CancelToken* cancel = nullptr);

    /**
     * Forward every channel into Eval form (cached NegacyclicTables,
     * channels fanned across the pool). In Eval form the ring product
     * is mulEval's point-wise pass — no transforms — so chained
     * products and sums can stay transform-resident and pay a single
     * toCoeff at the end. @throws InvalidArgument unless Coeff form.
     */
    rns::RnsPolynomial toEval(const rns::RnsPolynomial& a);
    void toEvalInto(const rns::RnsPolynomial& a, rns::RnsPolynomial& c,
                    const robust::CancelToken* cancel = nullptr);

    /** Inverse of toEval. @throws InvalidArgument unless Eval form. */
    rns::RnsPolynomial toCoeff(const rns::RnsPolynomial& a);
    void toCoeffInto(const rns::RnsPolynomial& a, rns::RnsPolynomial& c,
                     const robust::CancelToken* cancel = nullptr);

    /**
     * Negacyclic ring product of two Eval-form operands: one point-wise
     * multiply per channel, zero transforms. Result stays Eval.
     */
    rns::RnsPolynomial mulEval(const rns::RnsPolynomial& a,
                               const rns::RnsPolynomial& b);
    void mulEvalInto(const rns::RnsPolynomial& a, const rns::RnsPolynomial& b,
                     rns::RnsPolynomial& c,
                     const robust::CancelToken* cancel = nullptr);

    /**
     * Fused dot product sum_i a_i * b_i mod (x^n + 1, Q), one channel
     * per pool task. Pairs may mix forms (Coeff operands are forwarded
     * on the fly); accumulation runs in the transform domain so each
     * channel pays ONE inverse transform for the whole batch — 2k
     * forward + 1 inverse instead of the naive 2k + k. Exact modular
     * arithmetic makes the Coeff-form result bit-identical to summing k
     * polymulNegacyclic calls. @throws InvalidArgument on an empty
     * batch or mismatched operands.
     *
     * Each channel takes one of two paths, both bit-identical (exact
     * mod-q accumulation is order-independent, and each lane of a
     * batch transform is word-identical to the per-channel kernel):
     *  - per channel (rns::detail::fmaChannel): the forwards run one
     *    product at a time into at most four staged pairs, which one
     *    blas::vdot sums into the accumulator — on AVX-512 IFMA in
     *    carry-free limb columns reduced once per 15 pairs;
     *  - batched (rns::detail::fmaChannelBatched): whole tiles of
     *    il = ntt::batchInterleave(backend()) products run their
     *    forwards through the merged negacyclic batch kernels
     *    (ntt::negacyclicForwardBatch over core/batch_layout.h).
     * The batched path runs only where ntt::fmaBatchKernelsWin(backend())
     * says it is the faster one (AVX2, Portable, MQX), and only for
     * all-Coeff batches of at least il products on a batch-capable
     * plan; Scalar and AVX-512 always run per channel.
     */
    rns::RnsPolynomial fmaBatch(
        const std::vector<std::pair<const rns::RnsPolynomial*,
                                    const rns::RnsPolynomial*>>& products);
    void fmaBatchInto(
        const std::vector<std::pair<const rns::RnsPolynomial*,
                                    const rns::RnsPolynomial*>>& products,
        rns::RnsPolynomial& c, const robust::CancelToken* cancel = nullptr);

    /**
     * Run many independent negacyclic products concurrently. All
     * (product, channel) pairs are dispatched as one flat task set, so
     * the pool stays saturated even when individual operands have fewer
     * channels than there are threads. Thread-safe: multiple caller
     * threads may submit batches (and single ops) concurrently.
     *
     * The batch runs as one flat list of tasks, each a run of
     * consecutive products on one channel. In a uniform batch (one
     * basis, one length) of at least il = ntt::batchInterleave(backend())
     * products on a batch-capable plan, a task is a whole tile of il
     * products, run through the merged negacyclic batch kernels — one
     * stage sweep serves il products, each lane word-identical to the
     * per-channel path. Every other product is a task of its own.
     */
    std::vector<rns::RnsPolynomial> polymulNegacyclicBatch(
        const std::vector<std::pair<const rns::RnsPolynomial*,
                                    const rns::RnsPolynomial*>>& products,
        const robust::CancelToken* cancel = nullptr);

  private:
    /** True for ops whose sequence number the policy says to check. */
    bool shouldVerify(uint64_t seq) const;

    Backend backend_;
    robust::VerifyOptions verify_;
    ThreadPool pool_;
    PlanCache plan_cache_;
    ntt::NegacyclicWorkspacePool workspaces_;
    /** Op sequence for the Sample verification policy. */
    std::atomic<uint64_t> op_seq_{0};
};

} // namespace engine
} // namespace mqx
