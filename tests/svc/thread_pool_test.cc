/** @file Tests for the bounded worker pool. */

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hh"
#include "svc/thread_pool.hh"

namespace hcm {
namespace svc {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(4);
        for (int i = 0; i < 100; ++i)
            pool.submit([&ran] { ++ran; });
    } // destructor drains + joins
    EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, SingleThreadRunsInSubmissionOrder)
{
    std::vector<int> order;
    {
        ThreadPool pool(1);
        for (int i = 0; i < 20; ++i)
            pool.submit([&order, i] { order.push_back(i); });
    }
    ASSERT_EQ(order.size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, SpawnsRequestedWorkerCount)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.threadCount(), 3u);
    ThreadPool fallback(0);
    EXPECT_GE(fallback.threadCount(), 1u);
}

TEST(ThreadPoolTest, WorkRunsOffTheSubmittingThread)
{
    std::set<std::thread::id> seen;
    std::mutex mu;
    {
        ThreadPool pool(4);
        for (int i = 0; i < 64; ++i)
            pool.submit([&] {
                std::lock_guard<std::mutex> lock(mu);
                seen.insert(std::this_thread::get_id());
            });
    }
    EXPECT_FALSE(seen.count(std::this_thread::get_id()));
    EXPECT_GE(seen.size(), 1u);
}

TEST(ThreadPoolTest, BoundedQueueAppliesBackpressure)
{
    // One deliberately-stalled worker and a capacity-2 queue: the
    // producer must block on the third submit until the gate opens,
    // and every task still runs exactly once.
    std::atomic<bool> gate{false};
    std::atomic<int> ran{0};
    {
        ThreadPool pool(1, 2);
        pool.submit([&] {
            while (!gate.load())
                std::this_thread::yield();
            ++ran;
        });
        for (int i = 0; i < 8; ++i) {
            if (i == 2) {
                // Queue is now full (1 running + 2 queued); open the
                // gate from another thread so this submit can finish.
                std::thread([&gate] {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(50));
                    gate.store(true);
                }).detach();
            }
            pool.submit([&ran] { ++ran; });
        }
    }
    EXPECT_EQ(ran.load(), 9);
}

TEST(ThreadPoolTest, PendingTasksDrainToZero)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 10; ++i)
        pool.submit([&ran] { ++ran; });
    while (ran.load() < 10)
        std::this_thread::yield();
    // All tasks started; queue cannot still hold anything unstarted.
    EXPECT_EQ(pool.pendingTasks(), 0u);
}

TEST(ThreadPoolTest, SubmitAfterShutdownIsRejectedNotFatal)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    EXPECT_FALSE(pool.stopping());
    EXPECT_TRUE(pool.submit([&ran] { ++ran; }));
    pool.shutdown(); // drains the accepted task, joins the workers
    EXPECT_TRUE(pool.stopping());
    EXPECT_EQ(ran.load(), 1);
    // Late submissions are dropped with a false return, not a crash.
    EXPECT_FALSE(pool.submit([&ran] { ++ran; }));
    EXPECT_FALSE(pool.trySubmit([&ran] { ++ran; }, 1'000'000));
    EXPECT_EQ(ran.load(), 1);
    pool.shutdown(); // idempotent
}

TEST(ThreadPoolTest, TrySubmitGivesUpAtAFullQueue)
{
    // One stalled worker and a one-slot queue: with the slot taken,
    // a zero-wait trySubmit must fail fast and a bounded-wait one must
    // return within its budget instead of blocking indefinitely.
    std::atomic<bool> gate{false};
    std::atomic<int> ran{0};
    {
        ThreadPool pool(1, 1);
        pool.submit([&] {
            while (!gate.load())
                std::this_thread::yield();
            ++ran;
        });
        // Occupy the single queue slot once the worker holds task 1.
        while (pool.pendingTasks() > 0)
            std::this_thread::yield();
        EXPECT_TRUE(pool.trySubmit([&ran] { ++ran; }, 0));
        EXPECT_FALSE(pool.trySubmit([&ran] { ++ran; }, 0));
        auto start = std::chrono::steady_clock::now();
        EXPECT_FALSE(pool.trySubmit([&ran] { ++ran; }, 20'000'000));
        auto waited =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start);
        EXPECT_GE(waited.count(), 15); // honored (most of) the bound
        gate.store(true);
        // With the queue drained the bounded wait succeeds again.
        while (pool.pendingTasks() > 0)
            std::this_thread::yield();
        EXPECT_TRUE(pool.trySubmit([&ran] { ++ran; }, 100'000'000));
    }
    EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPoolTest, ShutdownRacingSubmittersNeverCrashes)
{
    // Producers hammer submit() while shutdown() runs on the live
    // pool: every accepted task must still run exactly once, every
    // rejected submission must report false, and nothing may crash
    // (the seed asserted — and died — on this race).
    ThreadPool pool(2, 8);
    std::atomic<int> ran{0};
    std::atomic<int> accepted{0};
    std::atomic<int> rejected{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p)
        producers.emplace_back([&] {
            for (int i = 0; i < 200; ++i) {
                if (pool.submit([&ran] { ++ran; }))
                    ++accepted;
                else
                    ++rejected;
            }
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    pool.shutdown();
    for (std::thread &t : producers)
        t.join();
    EXPECT_EQ(ran.load(), accepted.load());
    EXPECT_EQ(accepted.load() + rejected.load(), 800);
    // Shutdown mid-storm must have turned at least some away.
    EXPECT_FALSE(pool.submit([&ran] { ++ran; }));
}

TEST(ThreadPoolTest, ShardLabelTagsTheMetricSeries)
{
    // A labeled pool must report through its own {shard=...} series —
    // the sharded serving tier relies on per-shard queue depth and
    // latency being distinguishable in one process.
    obs::Labels labels = {{"shard", "tp-label-test"}};
    obs::Counter &tasks = obs::globalRegistry().counter(
        "hcm_pool_tasks_total", labels);
    obs::Histogram &latency = obs::globalRegistry().histogram(
        "hcm_pool_task_latency_ns", labels);
    std::int64_t tasks_before = tasks.value();
    std::uint64_t samples_before = latency.count();
    {
        ThreadPool pool(2, ThreadPool::kDefaultQueueCapacity,
                        "tp-label-test");
        for (int i = 0; i < 10; ++i)
            pool.submit([] {});
    }
    EXPECT_EQ(tasks.value(), tasks_before + 10);
    EXPECT_EQ(latency.count(), samples_before + 10);
    // The unlabeled series must NOT have absorbed the labeled runs:
    // same name, different labels, different instrument.
    ThreadPool unlabeled(1);
    unlabeled.submit([] {});
    unlabeled.shutdown();
    EXPECT_NE(&tasks, &obs::globalRegistry().counter(
                          "hcm_pool_tasks_total"));
}

TEST(ThreadPoolTest, CallerRunTasksRunOnTheCallingThread)
{
    obs::Labels labels = {{"shard", "tp-caller-run-test"}};
    obs::Counter &tasks = obs::globalRegistry().counter(
        "hcm_pool_tasks_total", labels);
    std::int64_t tasks_before = tasks.value();
    ThreadPool pool(2, ThreadPool::kDefaultQueueCapacity,
                    "tp-caller-run-test");
    std::thread::id ran_on;
    EXPECT_TRUE(pool.tryRunHere([&] { ran_on = std::this_thread::get_id(); }));
    EXPECT_EQ(ran_on, std::this_thread::get_id());
    // Counted in the pool's instruments like a worker's task.
    EXPECT_EQ(tasks.value(), tasks_before + 1);
}

TEST(ThreadPoolTest, CallerRunIsRefusedWhileSlotsAreBusyOrTasksQueued)
{
    std::atomic<bool> gate{false};
    std::atomic<bool> started{false};
    std::atomic<int> ran{0};
    ThreadPool pool(1, 4);
    pool.submit([&] {
        started = true;
        while (!gate.load())
            std::this_thread::yield();
    });
    while (!started.load())
        std::this_thread::yield();
    // The only slot is the worker's: refused, and not run.
    EXPECT_FALSE(pool.tryRunHere([&] { ++ran; }));
    // A queued task must not be jumped, even once a slot frees.
    pool.submit([&] { ++ran; });
    EXPECT_FALSE(pool.tryRunHere([&] { ++ran; }));
    gate = true;
    while (ran.load() < 1)
        std::this_thread::yield();
    while (pool.pendingTasks() > 0)
        std::this_thread::yield();
    pool.shutdown();
    EXPECT_EQ(ran.load(), 1);
    // Stopping: refused.
    EXPECT_FALSE(pool.tryRunHere([&] { ++ran; }));
    EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, CallersAndWorkersNeverExceedTheSlotCount)
{
    // 8 callers on a 2-thread pool, mixing caller-runs and queued
    // tasks: at no moment do more than 2 tasks run.
    ThreadPool pool(2, 64);
    std::atomic<int> running{0};
    std::atomic<int> high_water{0};
    std::atomic<int> done{0};
    auto task = [&] {
        int now = ++running;
        int seen = high_water.load();
        while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        --running;
        ++done;
    };
    std::vector<std::thread> callers;
    for (int c = 0; c < 8; ++c)
        callers.emplace_back([&] {
            for (int i = 0; i < 50; ++i) {
                if (!pool.tryRunHere(task))
                    pool.submit(task);
            }
        });
    for (std::thread &t : callers)
        t.join();
    pool.shutdown();
    EXPECT_EQ(done.load(), 400);
    EXPECT_LE(high_water.load(), 2);
    EXPECT_GE(high_water.load(), 1);
}

TEST(ThreadPoolTest, ShutdownWaitsForACallerRunTask)
{
    ThreadPool pool(1);
    std::atomic<bool> inside{false};
    std::atomic<bool> finished{false};
    std::thread caller([&] {
        pool.tryRunHere([&] {
            inside = true;
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            finished = true;
        });
    });
    while (!inside.load())
        std::this_thread::yield();
    pool.shutdown();
    EXPECT_TRUE(finished.load());
    caller.join();
}

} // namespace
} // namespace svc
} // namespace hcm
