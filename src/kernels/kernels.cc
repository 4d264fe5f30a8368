#include "kernels/kernels.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "base/env.hh"
#include "base/logging.hh"
#include "base/mutex.hh"

namespace se {
namespace kernels {

namespace {

std::atomic<ConvImpl> g_impl{convImplFromEnv()};

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
/** The live pool. Only the pointer is guarded: pool() hands out a
 *  reference that callers use off-lock, which is safe because a pool
 *  is never destroyed mid-process — configureThreads() retires the
 *  old one into g_retired_pools instead of deleting it under a
 *  caller still fanning work onto it. */
std::unique_ptr<ThreadPool> g_pool SE_GUARDED_BY(g_pool_mu);
/** Replaced pools, kept alive until exit (see above). A test suite
 *  reconfiguring thread counts leaks a handful of idle workers at
 *  most; correctness beats that footprint. */
std::vector<std::unique_ptr<ThreadPool>> g_retired_pools
    SE_GUARDED_BY(g_pool_mu);

bool &
serialFlag()
{
    static thread_local bool flag = false;
    return flag;
}

} // namespace

ConvImpl
convImplFromEnv()
{
    const char *s = std::getenv("SE_CONV_IMPL");
    if (!s || !*s)
        return ConvImpl::Auto;
    if (!std::strcmp(s, "auto"))
        return ConvImpl::Auto;
    if (!std::strcmp(s, "naive"))
        return ConvImpl::Naive;
    if (!std::strcmp(s, "gemm"))
        return ConvImpl::Im2colGemm;
    SE_FATAL("SE_CONV_IMPL must be auto|naive|gemm, got '", s, "'");
}

ConvImpl
defaultConvImpl()
{
    return g_impl.load(std::memory_order_relaxed);
}

void
setDefaultConvImpl(ConvImpl impl)
{
    g_impl.store(impl, std::memory_order_relaxed);
}

bool
useBitIdenticalFastPath(ConvImpl impl)
{
    return impl != ConvImpl::Naive;
}

bool
useReassociatingFastPath(ConvImpl impl)
{
    return impl == ConvImpl::Im2colGemm;
}

ThreadPool &
pool()
{
    base::LockGuard lk(g_pool_mu);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(threadsFromEnv());
    return *g_pool;
}

void
configureThreads(int threads)
{
    base::LockGuard lk(g_pool_mu);
    // Retire, don't destroy: a concurrent parallelFor() may hold the
    // reference pool() returned before this call took the lock, and
    // destroying the pool under it would join workers mid-submit (a
    // use-after-free TSan catches). The old pool drains naturally and
    // idles until process exit.
    if (g_pool)
        g_retired_pools.push_back(std::move(g_pool));
    g_pool = std::make_unique<ThreadPool>(threads < 1 ? 1 : threads);
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
