/**
 * @file
 * Thread-pool implementation.
 */
#include "engine/thread_pool.h"

#include <algorithm>
#include <exception>
#include <string>

#include "core/env.h"
#include "robust/fault_injection.h"

namespace mqx {
namespace engine {

namespace {

// Ceiling on pool width. Channel tasks are coarse (a full NTT pipeline
// each), so nothing past a few hundred OS threads can ever help — and
// an over-large MQX_THREADS must not exhaust thread handles.
constexpr size_t kMaxThreads = 512;

} // namespace

struct ThreadPool::Job
{
    const std::function<void(size_t)>& body;
    const robust::CancelToken* cancel;
    const size_t end;
    const size_t count;
    /** Listed in jobs_ for workers to claim from (set before any can). */
    bool published = false;

    // Guarded by the pool mutex.
    /** Next unclaimed index; the job is exhausted at end. */
    size_t next;
    /** Tasks counted finished (run or skipped). */
    size_t finished = 0;
    /** Lowest index whose body threw (end: none); later claims skip. */
    size_t failed;
    /** That index's exception. */
    std::exception_ptr error;
    /** Some task saw the token tripped and skipped. */
    bool cancelled = false;

    Job(const std::function<void(size_t)>& b, const robust::CancelToken* c,
        size_t begin, size_t e)
        : body(b), cancel(c), end(e), count(e - begin), next(begin),
          failed(e)
    {}
};

size_t
defaultThreadCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    const uint64_t fallback = hw > 0 ? hw : 1;
    // The pool ctor re-clamps to kMaxThreads, so a large-but-valid
    // MQX_THREADS stays a clamp while garbage/0/negative/overflow fall
    // back to the hardware default with a telemetry note (core/env.h).
    return std::min(static_cast<size_t>(core::envUint("MQX_THREADS", fallback,
                                                      /*min_ok=*/1)),
                    kMaxThreads);
}

ThreadPool::ThreadPool(size_t threads)
{
    if (threads == 0)
        threads = defaultThreadCount();
    thread_count_ = threads < 1 ? 1 : std::min(threads, kMaxThreads);
    if (thread_count_ <= 1)
        return; // inline serial pool: no workers
    // thread_count_ - 1 workers: parallelFor's caller always executes
    // tasks too, so N-way parallelism needs N-1 extra threads — a full
    // N would oversubscribe an N-core host by one compute thread.
    const size_t worker_count = thread_count_ - 1;
    worker_counters_ = std::make_unique<WorkerCounters[]>(worker_count);
    workers_.reserve(worker_count);
    try {
        for (size_t i = 0; i < worker_count; ++i)
            workers_.emplace_back([this, i] { workerLoop(i); });
    } catch (...) {
        // Partial spawn (e.g. EAGAIN in a thread-limited container):
        // shut down the workers that did start, then surface the error
        // — otherwise their vector destructor would std::terminate.
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        work_cv_.notify_all();
        for (std::thread& w : workers_)
            w.join();
        workers_.clear();
        throw;
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_)
        w.join();
}

ThreadPool::Stats
ThreadPool::stats() const
{
    Stats s;
    const size_t worker_count = workers_.size();
    s.worker_tasks.reserve(worker_count);
    s.worker_idle_ns.reserve(worker_count);
    for (size_t i = 0; i < worker_count; ++i) {
        s.worker_tasks.push_back(worker_counters_[i].tasks.value());
        s.worker_idle_ns.push_back(worker_counters_[i].idle_ns.value());
    }
    s.caller_tasks = caller_tasks_.value();
    s.steals = steals_.value();
    s.submitted = submitted_.value();
    s.skipped = skipped_.value();
    return s;
}

void
ThreadPool::workerLoop(size_t worker_index)
{
    telemetry::setThreadName("pool-worker-" + std::to_string(worker_index));
    WorkerCounters& wc = worker_counters_[worker_index];
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_ || !jobs_.empty()) {
        if (jobs_.empty()) {
            // Blocked with nothing to claim: the pool-overhead number
            // the attribution report cites (workers waiting, not
            // working).
            const uint64_t t0 = telemetry::nowNs();
            work_cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
            wc.idle_ns.add(telemetry::nowNs() - t0);
            continue;
        }
        runNext(*jobs_.front(), lock, &wc);
    }
}

/**
 * The one claim loop body. With @p lock held, claim @p job's next index
 * (false when none is left), unlinking a published job that this claim
 * exhausts; then, unlocked, count the task for its executor (@p worker,
 * or the caller when null) and run the body unless a lower index has
 * failed or the token has tripped. The finish is counted under the
 * re-acquired lock, and the job's last finish wakes its caller — the
 * last touch of the job, so it can leave the caller's stack as soon as
 * the caller's wait returns.
 */
bool
ThreadPool::runNext(Job& job, std::unique_lock<std::mutex>& lock,
                    WorkerCounters* worker)
{
    if (job.next == job.end)
        return false;
    const size_t i = job.next++;
    if (job.next == job.end && job.published)
        jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
    const bool aborted = job.failed < i;
    lock.unlock();

    (worker ? worker->tasks : caller_tasks_).add(1);
    if (!worker && job.published)
        steals_.add(1);
    const bool cancelled = !aborted && job.cancel && job.cancel->cancelled();
    std::exception_ptr error;
    if (aborted || cancelled) {
        skipped_.add(1);
    } else {
        try {
            MQX_FAULT_POINT("thread_pool.task");
            job.body(i);
        } catch (...) {
            error = std::current_exception(); // rethrown by parallelFor
        }
    }

    lock.lock();
    if (error && i < job.failed) {
        job.failed = i;
        job.error = std::move(error);
    }
    if (cancelled)
        job.cancelled = true;
    if (++job.finished == job.count)
        done_cv_.notify_all();
    return true;
}

void
ThreadPool::parallelFor(size_t begin, size_t end,
                        const std::function<void(size_t)>& body,
                        const robust::CancelToken* cancel)
{
    if (begin >= end)
        return;
    Job job(body, cancel, begin, end);
    submitted_.add(job.count);

    std::unique_lock<std::mutex> lock(mutex_);
    if (!serial() && job.count > 1) {
        jobs_.push_back(&job);
        job.published = true;
        const size_t wake = std::min(workers_.size(), job.count - 1);
        for (size_t w = 0; w < wake; ++w)
            work_cv_.notify_one();
    }
    while (runNext(job, lock, nullptr)) {
    }
    done_cv_.wait(lock, [&job] { return job.finished == job.count; });
    lock.unlock();
    if (job.error)
        std::rethrow_exception(job.error);
    if (job.cancelled)
        throw robust::StatusError(cancel->status());
}

} // namespace engine
} // namespace mqx
