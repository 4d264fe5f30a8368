/**
 * @file
 * A fixed-size thread pool.
 *
 * Two owners build one: kernels::pool(), the process executor every
 * library fan-out shares (sized by the SE_THREADS budget), and
 * serve::ServeEngine, whose workers each drive one session replica.
 *
 * Deliberately simple: one shared FIFO queue, no work stealing. The
 * workloads this library fans out (per-matrix ALS decompositions,
 * per-layer accelerator runs, GEMM column panels) are coarse enough
 * that queue contention is irrelevant, and a FIFO keeps completion
 * order close to submission order, which keeps wall-clock profiles
 * easy to reason about.
 *
 * Construction with `threads <= 1` still works: submit() runs fine on
 * a single worker, and parallelFor() degrades to an inline loop so
 * callers never need a special serial branch.
 */

#ifndef SE_BASE_THREAD_POOL_HH
#define SE_BASE_THREAD_POOL_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "base/mutex.hh"

namespace se {

class ThreadPool
{
  public:
    /** Spawn `threads` workers; 0 or negative means "one per core". */
    explicit ThreadPool(int threads)
    {
        if (threads <= 0)
            threads = (int)std::thread::hardware_concurrency();
        if (threads < 1)
            threads = 1;
        workers_.reserve((size_t)threads);
        for (int i = 0; i < threads; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ~ThreadPool()
    {
        {
            base::LockGuard lk(mu_);
            stopping_ = true;
        }
        cv_.notifyAll();
        for (auto &w : workers_)
            w.join();
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int threadCount() const { return (int)workers_.size(); }

    /**
     * Tasks drained by workers so far (monotonic). Exists for tests
     * that assert a code path stayed OFF the pool: snapshot, run the
     * path, and check the counter did not move. Inline parallelFor
     * degradations (serial pool, nested call, SerialScope upstream)
     * never touch it.
     */
    uint64_t
    tasksExecuted() const
    {
        return tasks_executed_.load(std::memory_order_relaxed);
    }

    /** Queue a task; the future carries its result (or exception). */
    template <typename F>
    auto
    submit(F &&f) -> std::future<decltype(f())>
    {
        using R = decltype(f());
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(f));
        std::future<R> fut = task->get_future();
        {
            base::LockGuard lk(mu_);
            queue_.emplace([task] { (*task)(); });
        }
        cv_.notifyOne();
        return fut;
    }

    /** True when the calling thread is one of this pool's workers. */
    bool
    onWorkerThread() const
    {
        return currentPool() == this;
    }

    /**
     * Run fn(i) for i in [0, n), spread over at most `width` of the
     * pool's workers; blocks until every index has completed. Indices
     * are handed out dynamically (atomic counter), so uneven task
     * costs balance themselves. With a single worker (or width <= 1)
     * the loop runs inline on the caller's thread.
     * Calling parallelFor from one of this pool's own workers (nested
     * parallelism) also runs inline — blocking a worker on tasks only
     * that same worker could drain would deadlock the pool.
     * The first exception thrown by any fn(i) is rethrown here.
     */
    void
    parallelFor(int64_t n, const std::function<void(int64_t)> &fn,
                int width = std::numeric_limits<int>::max())
    {
        if (n <= 0)
            return;
        if (threadCount() <= 1 || width <= 1 || n == 1 ||
            onWorkerThread()) {
            for (int64_t i = 0; i < n; ++i)
                fn(i);
            return;
        }

        auto next = std::make_shared<std::atomic<int64_t>>(0);
        auto failed = std::make_shared<std::atomic<bool>>(false);
        auto first_error = std::make_shared<std::exception_ptr>();
        auto error_mu = std::make_shared<base::Mutex>();
        auto body = [next, failed, first_error, error_mu, n, &fn] {
            // Stop claiming new indices once any index has thrown,
            // mirroring the serial loop's early exit.
            for (int64_t i = next->fetch_add(1);
                 i < n && !failed->load(std::memory_order_relaxed);
                 i = next->fetch_add(1)) {
                try {
                    fn(i);
                } catch (...) {
                    failed->store(true, std::memory_order_relaxed);
                    base::LockGuard lk(*error_mu);
                    if (!*first_error)
                        *first_error = std::current_exception();
                }
            }
        };

        const int64_t chunks = std::min<int64_t>(
            n, std::min(threadCount(), width));
        std::vector<std::future<void>> done;
        done.reserve((size_t)chunks);
        for (int64_t c = 0; c < chunks; ++c)
            done.push_back(submit(body));
        for (auto &d : done)
            d.wait();
        if (*first_error)
            std::rethrow_exception(*first_error);
    }

  private:
    /** The pool the calling thread serves as a worker, if any. */
    static const ThreadPool *&
    currentPool()
    {
        static thread_local const ThreadPool *current = nullptr;
        return current;
    }

    void
    workerLoop()
    {
        currentPool() = this;
        for (;;) {
            std::function<void()> task;
            {
                base::LockGuard lk(mu_);
                // Explicit loop, not a wait-lambda: the analysis
                // checks these guarded reads like any locked region.
                while (!stopping_ && queue_.empty())
                    cv_.wait(lk);
                if (stopping_ && queue_.empty())
                    return;
                task = std::move(queue_.front());
                queue_.pop();
            }
            tasks_executed_.fetch_add(1, std::memory_order_relaxed);
            task();
        }
    }

    base::Mutex mu_;
    base::CondVar cv_;
    std::queue<std::function<void()>> queue_ SE_GUARDED_BY(mu_);
    std::vector<std::thread> workers_;  ///< ctor/dtor only
    std::atomic<uint64_t> tasks_executed_{0};
    bool stopping_ SE_GUARDED_BY(mu_) = false;
};

} // namespace se

#endif // SE_BASE_THREAD_POOL_HH
