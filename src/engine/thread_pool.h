/**
 * @file
 * A small fixed-size thread pool for fanning independent kernel work
 * (RNS residue channels, batched polymuls) across cores.
 *
 * RNS channels are embarrassingly parallel by construction — the whole
 * point of the residue decomposition (paper Section 1) is that channel
 * arithmetic never communicates — so the pool needs no work stealing:
 * each parallelFor call is one job on the caller's stack, published in
 * a short mutex-guarded list, and every executor claims its next index
 * under that mutex. At kernel granularity (each task is an NTT pipeline
 * or a length-n point-wise op, microseconds to milliseconds of work)
 * the claim is contention-free.
 *
 * One claim loop runs every task: the workers, the caller of a
 * published job, and the caller of a serial pool (<= 1 thread, no
 * workers) or of a one-index call, which runs the same loop without
 * publishing — in index order, bit-identical to a plain sequential
 * loop. A caller claims only its own job's indices, so it never idles
 * while one of them waits and never runs another caller's backlog.
 *
 * Scheduling accounting: every task execution is attributed to exactly
 * one executor — a worker thread (per-worker counter) or the caller
 * (inline on an unpublished job, a steal on a published one). The
 * per-pool Stats invariant `sum(worker_tasks) + caller_tasks ==
 * submitted` holds whenever the pool is quiescent. Every counter is a
 * telemetry::InstanceCounter the pool owns (pool.tasks, pool.idle_ns,
 * pool.steals, pool.submitted, pool.skipped), bumped once per event:
 * Stats is a view over them, and telemetry::snapshotJson() sums them
 * across live and retired pools next to the kernel spans. Workers also
 * name their trace lanes ("pool-worker-N"), which is what gives the
 * Chrome trace export one swimlane per worker.
 */
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "robust/cancel.h"
#include "telemetry/telemetry.h"

namespace mqx {
namespace engine {

/**
 * Worker thread count for pools created with threads == 0: the
 * MQX_THREADS environment variable when set to a positive integer,
 * otherwise std::thread::hardware_concurrency() (at least 1).
 * Hardened parsing (core/env.h): garbage, 0, negative, or overflowing
 * values fall back to hardware_concurrency() with a one-time
 * `env.fallback.MQX_THREADS` telemetry note — a typoed knob degrades
 * to the default instead of UB or a surprise clamp.
 */
size_t defaultThreadCount();

class ThreadPool
{
  public:
    /**
     * Scheduling counters since construction. Consistent (the
     * documented invariant holds exactly) once the pool is quiescent —
     * no parallelFor in flight; mid-flight reads are approximate but
     * tear-free.
     */
    struct Stats
    {
        /** Tasks executed by each worker thread (size threadCount()-1). */
        std::vector<uint64_t> worker_tasks;
        /** Nanoseconds each worker spent blocked with no published job. */
        std::vector<uint64_t> worker_idle_ns;
        /** Tasks executed on caller threads (inline + steals). */
        uint64_t caller_tasks = 0;
        /**
         * Subset of caller_tasks run on a published job, whose indices
         * the workers could claim too.
         */
        uint64_t steals = 0;
        /** Tasks handed to the pool: one per parallelFor index. */
        uint64_t submitted = 0;
        /**
         * parallelFor bodies that were drained as no-ops after a
         * sibling task failed or the call's CancelToken tripped. A
         * skipped task still counts toward worker_tasks/caller_tasks
         * (some executor claimed it), so the
         * sum(worker_tasks) + caller_tasks == submitted invariant is
         * unchanged; `skipped` says how many of those executions did
         * no useful work.
         */
        uint64_t skipped = 0;

        uint64_t
        executed() const
        {
            uint64_t total = caller_tasks;
            for (uint64_t t : worker_tasks)
                total += t;
            return total;
        }
    };

    /**
     * @param threads worker count; 0 means defaultThreadCount(). A
     *                resolved count <= 1 yields the inline serial pool.
     */
    explicit ThreadPool(size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /**
     * Parallelism this pool provides, counting the parallelFor caller
     * (which always executes tasks): threadCount() - 1 worker threads
     * exist, and 1 means the inline serial pool with none.
     */
    size_t threadCount() const { return thread_count_; }

    /** True when no worker threads exist and tasks run on the caller. */
    bool serial() const { return workers_.empty(); }

    /** Current scheduling counters (see Stats for the invariant). */
    Stats stats() const;

    /**
     * Run body(i) for every i in [begin, end), one task per index, and
     * wait for all of them. With workers and more than one index the
     * call is published so that up to min(workers, count - 1) woken
     * workers claim indices alongside the caller; otherwise the caller
     * runs them all, in order. Either way the caller claims only this
     * call's indices, and once none is left unclaimed it blocks until
     * the last claimed one finishes.
     *
     * Failure semantics: once an index throws, every index claimed
     * after the failure is drained as a cheap no-op (counted in
     * Stats::skipped) instead of running, and after the barrier the
     * error of the
     * lowest failing index is rethrown — the same one a serial pool
     * reports. Tasks already running when the failure happens do
     * complete; other concurrent parallelFor calls are unaffected.
     *
     * Cancellation: when @p cancel is non-null it is polled at every
     * task boundary. Once cancelled (explicitly or by deadline), not-
     * yet-started tasks drain as no-ops and the call throws
     * robust::StatusError with the token's status — unless a task
     * failed, which takes precedence. The token is only read during
     * the call; the caller keeps ownership.
     *
     * Safe to call from several external threads concurrently; must
     * not be called from inside a pool task.
     */
    void parallelFor(size_t begin, size_t end,
                     const std::function<void(size_t)>& body,
                     const robust::CancelToken* cancel = nullptr);

  private:
    /** Per-worker counters (each has one writer). */
    struct WorkerCounters
    {
        telemetry::InstanceCounter tasks{"pool.tasks"};
        telemetry::InstanceCounter idle_ns{"pool.idle_ns"};
    };

    /** One parallelFor call's state, on its caller's stack. */
    struct Job;

    void workerLoop(size_t worker_index);
    bool runNext(Job& job, std::unique_lock<std::mutex>& lock,
                 WorkerCounters* worker);

    size_t thread_count_ = 1;
    std::vector<std::thread> workers_;
    std::unique_ptr<WorkerCounters[]> worker_counters_;
    telemetry::InstanceCounter submitted_{"pool.submitted"};
    /** Caller executions count under the workers' name. */
    telemetry::InstanceCounter caller_tasks_{"pool.tasks"};
    telemetry::InstanceCounter steals_{"pool.steals"};
    telemetry::InstanceCounter skipped_{"pool.skipped"};
    std::mutex mutex_;
    /** Published jobs with unclaimed indices, oldest first. */
    std::vector<Job*> jobs_;
    bool stop_ = false;
    /** Workers wait here for a published job or stop_. */
    std::condition_variable work_cv_;
    /** Callers wait here for their job's last finish. */
    std::condition_variable done_cv_;
};

} // namespace engine
} // namespace mqx
