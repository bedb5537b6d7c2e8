#include "exp/thread_pool.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace lapses
{

namespace
{

/** Pool the current thread works for (nullptr outside any pool) and
 *  its worker index there. Both are needed: with nested pools — a
 *  campaign worker driving a network's intra-run pool — an index
 *  alone would mis-route a submit to the *other* pool's queue of the
 *  same index. */
thread_local const ThreadPool* tls_pool = nullptr;
thread_local int tls_worker_index = -1;

} // namespace

unsigned
resolveThreadCount(unsigned requested)
{
    if (requested > 0)
        return requested;
    return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned threads)
{
    threads = resolveThreadCount(threads);
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.push_back(std::make_unique<Worker>());
    // Queues exist for every worker before any thread can steal.
    for (unsigned i = 0; i < threads; ++i) {
        workers_[i]->thread = std::jthread(
            [this, i](std::stop_token stop) { workerLoop(stop, i); });
    }
}

ThreadPool::~ThreadPool()
{
    for (auto& w : workers_)
        w->thread.request_stop();
    sleep_cv_.notify_all();
    // Join every thread before any Worker is destroyed: a worker
    // winding down may still be inside trySteal() holding (or about
    // to take) another worker's queue mutex, so destroying Workers
    // one at a time — each ~jthread joining only its own thread —
    // would free a mutex that a live thread is about to lock.
    // Workers drain the queues before honoring the stop request.
    for (auto& w : workers_)
        w->thread.join();
}

void
ThreadPool::enqueue(Task task)
{
    LAPSES_ASSERT(!workers_.empty());
    std::size_t target;
    if (tls_pool == this && tls_worker_index >= 0 &&
        static_cast<std::size_t>(tls_worker_index) < workers_.size()) {
        target = static_cast<std::size_t>(tls_worker_index);
    } else {
        target = next_.fetch_add(1, std::memory_order_relaxed) %
                 workers_.size();
    }
    unfinished_.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lk(workers_[target]->mutex);
        workers_[target]->queue.push_back(std::move(task));
    }
    {
        // Updating queued_ under sleep_mutex_ closes the lost-wakeup
        // window: a worker that saw queued_ == 0 under the lock is
        // guaranteed to be blocked in wait() before this increment can
        // proceed, so the notify below always reaches it.
        std::lock_guard<std::mutex> lk(sleep_mutex_);
        queued_.fetch_add(1, std::memory_order_release);
    }
    sleep_cv_.notify_one();
}

bool
ThreadPool::tryPop(unsigned self, Task& out)
{
    Worker& w = *workers_[self];
    std::lock_guard<std::mutex> lk(w.mutex);
    if (w.queue.empty())
        return false;
    out = std::move(w.queue.back());
    w.queue.pop_back();
    queued_.fetch_sub(1, std::memory_order_relaxed);
    return true;
}

bool
ThreadPool::trySteal(unsigned self, Task& out)
{
    const std::size_t n = workers_.size();
    for (std::size_t hop = 1; hop < n; ++hop) {
        Worker& victim = *workers_[(self + hop) % n];
        std::lock_guard<std::mutex> lk(victim.mutex);
        if (victim.queue.empty())
            continue;
        out = std::move(victim.queue.front());
        victim.queue.pop_front();
        queued_.fetch_sub(1, std::memory_order_relaxed);
        return true;
    }
    return false;
}

void
ThreadPool::workerLoop(std::stop_token stop, unsigned index)
{
    tls_pool = this;
    tls_worker_index = static_cast<int>(index);
    for (;;) {
        Task task;
        if (tryPop(index, task) || trySteal(index, task)) {
            task(); // packaged_task: exceptions land in the future
            if (unfinished_.fetch_sub(1, std::memory_order_acq_rel) ==
                1) {
                std::lock_guard<std::mutex> lk(sleep_mutex_);
                idle_cv_.notify_all();
            }
            continue;
        }
        std::unique_lock<std::mutex> lk(sleep_mutex_);
        const bool live = sleep_cv_.wait(lk, stop, [this] {
            return queued_.load(std::memory_order_acquire) > 0;
        });
        if (!live && queued_.load(std::memory_order_acquire) == 0)
            return; // stop requested and nothing left to drain
    }
}

void
ThreadPool::waitIdle()
{
    std::unique_lock<std::mutex> lk(sleep_mutex_);
    idle_cv_.wait(lk, [this] {
        return unfinished_.load(std::memory_order_acquire) == 0;
    });
}

} // namespace lapses
