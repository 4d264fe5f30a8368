#include "kernels/kernels.hh"

#include <cstdlib>
#include <map>
#include <memory>

#include "base/env.hh"
#include "base/mutex.hh"

namespace se {
namespace kernels {

namespace {

int
threadsFromEnv()
{
    // The RuntimeOptions convention and parser: 0 = serial,
    // negative/unset = one worker per core, anything that is not a
    // whole in-range integer throws std::invalid_argument.
    int threads = -1;
    if (const char *t = std::getenv("SE_THREADS"))
        threads = base::envIntNarrow("SE_THREADS", t);
    if (threads < 0) {
        const unsigned hc = std::thread::hardware_concurrency();
        threads = hc > 0 ? (int)hc : 1;
    }
    return threads < 1 ? 1 : threads;
}

base::Mutex g_pool_mu;
/** Every pool ever built, one per width. pool() hands out a
 *  reference that callers use off-lock, so a pool is never destroyed
 *  mid-process: configureThreads() only re-points g_pool. Keeping
 *  one pool per width bounds the workers at the sum of the distinct
 *  widths requested, however often a caller switches between them. */
std::map<int, std::unique_ptr<ThreadPool>> g_pools
    SE_GUARDED_BY(g_pool_mu);
/** The live pool, owned by g_pools. */
ThreadPool *g_pool SE_GUARDED_BY(g_pool_mu) = nullptr;

ThreadPool &
poolOfWidth(int threads) SE_REQUIRES(g_pool_mu)
{
    std::unique_ptr<ThreadPool> &p = g_pools[threads];
    if (!p)
        p = std::make_unique<ThreadPool>(threads);
    return *p;
}

bool &
serialFlag()
{
    static thread_local bool flag = false;
    return flag;
}

} // namespace

ThreadPool &
pool()
{
    base::LockGuard lk(g_pool_mu);
    if (!g_pool)
        g_pool = &poolOfWidth(threadsFromEnv());
    return *g_pool;
}

void
configureThreads(int threads)
{
    base::LockGuard lk(g_pool_mu);
    // Re-select, don't destroy: a concurrent parallelFor() may hold
    // the reference pool() returned before this call took the lock,
    // and destroying the pool under it would join workers mid-submit
    // (a use-after-free TSan catches). The previous pool drains
    // naturally and idles until it is selected again.
    g_pool = &poolOfWidth(threads < 1 ? 1 : threads);
}

SerialScope::SerialScope() : prev_(serialFlag())
{
    serialFlag() = true;
}

SerialScope::~SerialScope()
{
    serialFlag() = prev_;
}

bool
serialScopeActive()
{
    return serialFlag();
}

void
parallelFor(int64_t n, const std::function<void(int64_t)> &fn)
{
    if (n <= 0)
        return;
    if (serialScopeActive()) {
        for (int64_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    pool().parallelFor(n, fn);
}

} // namespace kernels
} // namespace se
