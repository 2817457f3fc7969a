#include "thread_pool.hh"

#include <chrono>

#include "util/logging.hh"

namespace hcm {
namespace svc {

namespace {

/** {shard=<label>} when labeled, no labels otherwise. */
obs::Labels
poolLabels(const std::string &shard_label)
{
    if (shard_label.empty())
        return {};
    return {{"shard", shard_label}};
}

} // namespace

ThreadPool::ThreadPool(std::size_t threads, std::size_t queue_capacity,
                       const std::string &shard_label)
    : _capacity(queue_capacity > 0 ? queue_capacity : 1),
      _queueDepth(obs::globalRegistry().gauge(
          "hcm_pool_queue_depth", poolLabels(shard_label))),
      _tasksRun(obs::globalRegistry().counter(
          "hcm_pool_tasks_total", poolLabels(shard_label))),
      _taskLatencyNs(obs::globalRegistry().histogram(
          "hcm_pool_task_latency_ns", poolLabels(shard_label)))
{
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    _workers.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        _workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    shutdown();
}

void
ThreadPool::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(_mu);
        _stopping = true;
        if (_joined)
            return;
        _joined = true;
    }
    _notEmpty.notify_all();
    _notFull.notify_all();
    for (std::thread &w : _workers)
        w.join();
    // Workers have drained the queue; tasks run by callers may still
    // be going, and they use whatever owns this pool.
    std::unique_lock<std::mutex> lock(_mu);
    _callerDone.wait(lock, [this] { return _running == 0; });
}

bool
ThreadPool::stopping() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _stopping;
}

void
ThreadPool::enqueueLocked(std::function<void()> &&task)
{
    _queue.push_back(std::move(task));
    _queueDepth.set(static_cast<std::int64_t>(_queue.size()));
}

bool
ThreadPool::submit(std::function<void()> task)
{
    hcm_assert(task, "submitted an empty task");
    {
        std::unique_lock<std::mutex> lock(_mu);
        _notFull.wait(lock, [this] {
            return _queue.size() < _capacity || _stopping;
        });
        if (_stopping)
            return false; // reject, never crash, on a shutdown race
        enqueueLocked(std::move(task));
    }
    _notEmpty.notify_one();
    return true;
}

bool
ThreadPool::trySubmit(std::function<void()> task, std::uint64_t wait_ns)
{
    hcm_assert(task, "submitted an empty task");
    {
        std::unique_lock<std::mutex> lock(_mu);
        auto admissible = [this] {
            return _queue.size() < _capacity || _stopping;
        };
        if (wait_ns == 0) {
            if (!admissible())
                return false;
        } else if (!_notFull.wait_for(
                       lock, std::chrono::nanoseconds(wait_ns),
                       admissible)) {
            return false; // still full after the bounded wait
        }
        if (_stopping)
            return false;
        enqueueLocked(std::move(task));
    }
    _notEmpty.notify_one();
    return true;
}

std::size_t
ThreadPool::pendingTasks() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _queue.size();
}

bool
ThreadPool::tryTakeSlot()
{
    std::lock_guard<std::mutex> lock(_mu);
    if (_stopping || !_queue.empty() || _running >= _workers.size())
        return false;
    ++_running;
    return true;
}

void
ThreadPool::releaseCallerSlot(std::uint64_t dur_ns)
{
    recordTask(dur_ns);
    bool queued, stopping;
    {
        std::lock_guard<std::mutex> lock(_mu);
        --_running;
        queued = !_queue.empty();
        stopping = _stopping;
    }
    // Wake a worker only for a task that waited for this slot, and
    // shutdown() only when it may be waiting for this task: a needless
    // wake-up is a context switch, which is what running here saves.
    if (queued)
        _notEmpty.notify_one();
    if (stopping)
        _callerDone.notify_all();
}

void
ThreadPool::recordTask(std::uint64_t dur_ns)
{
    _taskLatencyNs.record(dur_ns);
    _tasksRun.add(1);
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(_mu);
    while (true) {
        _notEmpty.wait(lock, [this] {
            return (_stopping && _queue.empty()) ||
                   (!_queue.empty() && _running < _workers.size());
        });
        if (_queue.empty())
            return; // stopping and fully drained
        std::function<void()> task = std::move(_queue.front());
        _queue.pop_front();
        ++_running;
        _queueDepth.set(static_cast<std::int64_t>(_queue.size()));
        lock.unlock();
        _notFull.notify_one();
        obs::Span timer(nullptr, nullptr, true);
        task();
        task = nullptr; // release its captures before taking the lock
        recordTask(timer.end());
        lock.lock();
        --_running;
    }
}

} // namespace svc
} // namespace hcm
