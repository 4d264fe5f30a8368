#include "kernels/kernels.hh"

#include <cstdlib>

#include "base/env.hh"

namespace se {
namespace kernels {

namespace {

bool &
serialFlag()
{
    static thread_local bool flag = false;
    return flag;
}

} // namespace

int
threadBudget()
{
    // A throwing initializer leaves the static unset, so a malformed
    // SE_THREADS refuses every call until it is fixed.
    static const int budget = [] {
        int threads = -1;
        if (const char *t = std::getenv("SE_THREADS"))
            threads = base::envIntNarrow("SE_THREADS", t);
        if (threads < 0) {
            const unsigned hc = std::thread::hardware_concurrency();
            threads = hc > 0 ? (int)hc : 1;
        }
        return threads < 1 ? 1 : threads;
    }();
    return budget;
}

ThreadPool &
pool()
{
    static ThreadPool executor(threadBudget());
    return executor;
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
parallelFor(int64_t n, const std::function<void(int64_t)> &fn,
            int width)
{
    if (n <= 0)
        return;
    if (width <= 1 || threadBudget() <= 1 || serialScopeActive()) {
        for (int64_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    pool().parallelFor(n, fn, width);
}

} // namespace kernels
} // namespace se
