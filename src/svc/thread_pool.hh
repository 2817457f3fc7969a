/**
 * @file
 * Fixed-size worker pool with a bounded task queue — the execution
 * substrate of the query engine. Submission blocks when the queue is
 * full (backpressure instead of unbounded memory growth), or waits a
 * caller-chosen bound via trySubmit(); destruction drains every queued
 * task before joining, so accepted work always runs exactly once.
 * Submission after shutdown begins is a rejection (false), never a
 * crash — a serve loop racing its own teardown must degrade, not die.
 *
 * The pool has threadCount() slots, and every running task holds one:
 * a worker's, or one a caller takes through tryRunHere() to run a task
 * on its own thread when the pool is idle enough that a handoff would
 * only add a wake-up. So at most threadCount() tasks run at once, a
 * queued task waits for a free slot, and a caller never jumps a
 * non-empty queue.
 */

#ifndef HCM_SVC_THREAD_POOL_HH
#define HCM_SVC_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hcm {
namespace svc {

/** A fixed pool of worker threads consuming a bounded FIFO queue. */
class ThreadPool
{
  public:
    /**
     * Start @p threads workers (0 selects the hardware concurrency).
     * @p queue_capacity bounds the number of tasks waiting to run;
     * submit() blocks once the bound is reached. A non-empty
     * @p shard_label attaches {shard=<label>} to this pool's
     * instruments so multiple engine instances (one per net shard)
     * export distinguishable series instead of colliding on one
     * unlabeled gauge/histogram; empty keeps the historical unlabeled
     * series.
     */
    explicit ThreadPool(std::size_t threads,
                        std::size_t queue_capacity = kDefaultQueueCapacity,
                        const std::string &shard_label = "");

    /** shutdown(): drains the queue, then joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue @p task; blocks while the queue is at capacity. Returns
     * false — the task is dropped — when shutdown began instead.
     */
    bool submit(std::function<void()> task);

    /**
     * submit() with a bounded wait: give up after @p wait_ns
     * nanoseconds at a full queue (0 = don't wait at all). Returns
     * false when the task was not accepted — queue still full or pool
     * stopping — so callers can shed load instead of stalling.
     */
    bool trySubmit(std::function<void()> task, std::uint64_t wait_ns);

    /**
     * Run @p task on the calling thread, now, when a slot is free and
     * nothing is queued; otherwise (or once shutdown began) return
     * false without running it. The task counts in the pool's task
     * metrics like a worker's, and shutdown() waits for it.
     */
    template <typename F>
    bool
    tryRunHere(F &&task)
    {
        if (!tryTakeSlot())
            return false;
        // Released on unwind too, so a throwing task cannot leak it.
        struct Slot
        {
            ThreadPool &pool;
            obs::Span timer{nullptr, nullptr, true};
            ~Slot() { pool.releaseCallerSlot(timer.end()); }
        } slot{*this};
        task();
        return true;
    }

    /**
     * Begin shutdown: already-queued tasks still run ("drain-aware"),
     * new submissions are rejected, workers are joined. Idempotent;
     * called by the destructor.
     */
    void shutdown();

    /** True once shutdown() began; submissions will be rejected. */
    bool stopping() const;

    std::size_t threadCount() const { return _workers.size(); }

    /** Tasks queued but not yet picked up by a worker. */
    std::size_t pendingTasks() const;

    static constexpr std::size_t kDefaultQueueCapacity = 1024;

  private:
    void workerLoop();

    /** Locked: push the task and publish the new depth. */
    void enqueueLocked(std::function<void()> &&task);

    /** Take a slot for a caller-run task (tryRunHere()'s admission). */
    bool tryTakeSlot();

    /** Give back a caller's slot and record its @p dur_ns long task. */
    void releaseCallerSlot(std::uint64_t dur_ns);

    /** Count one finished, @p dur_ns long task in the pool instruments. */
    void recordTask(std::uint64_t dur_ns);

    mutable std::mutex _mu;
    std::condition_variable _notEmpty;
    std::condition_variable _notFull;
    /** Signalled when a caller-run task gives back its slot while
     *  shutdown() may be waiting for it. */
    std::condition_variable _callerDone;
    std::deque<std::function<void()>> _queue;
    std::vector<std::thread> _workers;
    std::size_t _capacity;
    /** Tasks running now, on workers and on callers (<= workers). */
    std::size_t _running = 0;
    bool _stopping = false;
    bool _joined = false;

    /** Process-wide pool instruments (all pools share the series). */
    obs::Gauge &_queueDepth;
    obs::Counter &_tasksRun;
    obs::Histogram &_taskLatencyNs;
};

} // namespace svc
} // namespace hcm

#endif // HCM_SVC_THREAD_POOL_HH
