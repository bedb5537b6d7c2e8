/**
 * @file
 * Work-stealing thread pool for the experiment-campaign engine.
 *
 * Each worker owns a deque: the owner pushes/pops at the back (LIFO,
 * cache-friendly) while idle workers steal from the front of a victim's
 * deque (FIFO, oldest work first). Tasks submitted from outside the
 * pool are distributed round-robin; tasks submitted from a worker go to
 * that worker's own deque. Results and exceptions propagate through
 * std::future via std::packaged_task, so a throwing task never takes
 * the pool down — the exception is rethrown at future::get().
 *
 * The destructor drains all submitted work before joining (std::jthread
 * handles the join); use waitIdle() to drain without destroying.
 */

#ifndef LAPSES_EXP_THREAD_POOL_HPP
#define LAPSES_EXP_THREAD_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace lapses
{

/**
 * A worker-thread count where 0 means "every hardware thread": the
 * request when > 0, else std::thread::hardware_concurrency(), and at
 * least 1 when the hardware count is unknown.
 */
unsigned resolveThreadCount(unsigned requested);

/** Fixed-size work-stealing pool (single use: construct, submit, join). */
class ThreadPool
{
  public:
    /** Spawn resolveThreadCount(threads) workers. */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains every submitted task, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Number of worker threads. */
    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Schedule fn() on the pool. The returned future yields fn's result
     * or rethrows the exception it raised.
     */
    template <typename F>
    auto
    submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> result = task->get_future();
        enqueue([task]() { (*task)(); });
        return result;
    }

    /** Block until every task submitted so far has finished. */
    void waitIdle();

    /**
     * Schedule fn() on the pool without a future. The caller owns
     * completion tracking and error propagation (e.g. the parallel
     * kernel's own barrier) — nothing is allocated per call beyond the
     * type-erased task itself, which keeps per-cycle fan-out cheap.
     * fn() must not throw; a post()ed task that throws terminates.
     */
    void post(std::function<void()> fn) { enqueue(std::move(fn)); }

  private:
    using Task = std::function<void()>;

    struct Worker
    {
        std::deque<Task> queue;
        std::mutex mutex;
        std::jthread thread; //!< last member: joins before queue dies
    };

    void enqueue(Task task);
    bool tryPop(unsigned self, Task& out);
    bool trySteal(unsigned self, Task& out);
    void workerLoop(std::stop_token stop, unsigned index);

    std::vector<std::unique_ptr<Worker>> workers_;
    std::mutex sleep_mutex_;
    std::condition_variable_any sleep_cv_; //!< workers park here
    std::condition_variable_any idle_cv_;  //!< waitIdle() parks here
    std::atomic<std::size_t> queued_{0};   //!< tasks sitting in queues
    std::atomic<std::size_t> unfinished_{0}; //!< queued + running
    std::atomic<std::size_t> next_{0};     //!< round-robin cursor
};

} // namespace lapses

#endif // LAPSES_EXP_THREAD_POOL_HPP
