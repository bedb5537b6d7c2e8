/**
 * @file
 * Unit tests for the work-stealing thread pool: submit/drain,
 * result and exception propagation, nested submission.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exp/thread_pool.hpp"

namespace lapses
{
namespace
{

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 200; ++i)
        futures.push_back(pool.submit([&count] { ++count; }));
    for (auto& f : futures)
        f.get();
    EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, ReturnsValuesThroughFutures)
{
    ThreadPool pool(2);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 50; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, PropagatesExceptionsWithoutKillingWorkers)
{
    ThreadPool pool(2);
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(bad.get(), std::runtime_error);
    // The pool survives a throwing task.
    auto good = pool.submit([] { return 41 + 1; });
    EXPECT_EQ(good.get(), 42);
}

TEST(ThreadPool, PostRunsFireAndForgetTasks)
{
    // post() is the allocation-light path the parallel kernel uses
    // every barrier: no future, caller-owned completion tracking.
    ThreadPool pool(4);
    std::atomic<int> count{0};
    std::mutex done_mutex;
    std::condition_variable done_cv;
    int pending = 300;
    for (int i = 0; i < 300; ++i) {
        pool.post([&] {
            ++count;
            const std::lock_guard<std::mutex> lock(done_mutex);
            if (--pending == 0)
                done_cv.notify_one();
        });
    }
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&] { return pending == 0; });
    EXPECT_EQ(count.load(), 300);
}

TEST(ThreadPool, WaitIdleDrainsAllQueues)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, TasksCanSubmitMoreTasks)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    std::vector<std::future<void>> inner;
    std::mutex inner_mutex;
    auto outer = pool.submit([&] {
        for (int i = 0; i < 10; ++i) {
            std::lock_guard<std::mutex> lk(inner_mutex);
            inner.push_back(pool.submit([&count] { ++count; }));
        }
    });
    outer.get();
    for (auto& f : inner)
        f.get();
    EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, DestructorDrainsPendingWork)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 100; ++i)
            pool.submit([&count] { ++count; });
        // No explicit drain: ~ThreadPool must finish everything.
    }
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ZeroThreadsMeansHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.threadCount(), 1u);
    EXPECT_EQ(pool.threadCount(), resolveThreadCount(0));
}

TEST(ThreadPool, ConstructSubmitDestroyStress)
{
    // Lock in the destructor-join order fix: tear pools down while
    // workers are mid-steal, over and over. Destroying Workers one at
    // a time (each ~jthread joining only its own thread) used to free
    // a queue mutex another live worker was about to lock inside
    // trySteal(); under TSAN/ASAN this loop is the regression trap.
    std::atomic<int> count{0};
    for (int round = 0; round < 60; ++round) {
        ThreadPool pool(4);
        // Tiny tasks maximize steal traffic; no drain before the
        // destructor runs, so teardown races the busiest phase.
        for (int i = 0; i < 64; ++i)
            pool.submit([&count] { ++count; });
    }
    // Every task ran despite the immediate teardowns.
    EXPECT_EQ(count.load(), 60 * 64);
}

TEST(ThreadPool, StressNestedPoolsRouteSubmitsCorrectly)
{
    // A worker of an outer pool submitting to an *inner* pool must
    // round-robin into the inner pool's queues, not self-enqueue into
    // a same-index queue of the wrong pool (the campaign-worker /
    // intra-run-pool nesting the parallel kernel creates). The inner
    // submits would deadlock or crash if misrouted; the counts prove
    // they all ran.
    std::atomic<int> ran{0};
    ThreadPool outer(3);
    ThreadPool inner(3);
    std::vector<std::future<void>> outer_futures;
    for (int i = 0; i < 30; ++i) {
        outer_futures.push_back(outer.submit([&] {
            std::vector<std::future<void>> fs;
            for (int j = 0; j < 8; ++j)
                fs.push_back(inner.submit([&ran] { ++ran; }));
            for (auto& f : fs)
                f.get();
        }));
    }
    for (auto& f : outer_futures)
        f.get();
    EXPECT_EQ(ran.load(), 30 * 8);
}

TEST(ThreadPool, ContendedSubmitAndDrainRepeated)
{
    // Many submitters hammering one pool while waitIdle() runs in the
    // middle: exercises the lost-wakeup guard (queued_ under
    // sleep_mutex_) and the idle_cv_ accounting from both sides.
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int round = 0; round < 20; ++round) {
        std::vector<std::thread> submitters;
        for (int s = 0; s < 4; ++s) {
            submitters.emplace_back([&] {
                for (int i = 0; i < 25; ++i)
                    pool.submit([&count] { ++count; });
            });
        }
        for (auto& t : submitters)
            t.join();
        pool.waitIdle();
        EXPECT_EQ(count.load(), (round + 1) * 100);
    }
}

} // namespace
} // namespace lapses
