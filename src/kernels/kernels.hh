/**
 * @file
 * The process executor: the one thread pool every fan-out in the
 * library runs on (GEMM column panels, the compression pipeline's
 * decomposition units, SimDriver's sweep cells, the v4 piece
 * encode), plus the nesting rule that keeps them from fighting over
 * it.
 *
 * Environment knob (parsed once, on first use):
 *  - SE_THREADS: the thread budget, i.e. the executor's width.
 *      0 => serial, negative or unset => one worker per core (the
 *      same convention and the same strict parser as RuntimeOptions:
 *      a malformed value makes threadBudget() and pool() throw
 *      std::invalid_argument).
 *
 * Every layer has exactly one lowering (conv/Linear forward and
 * Linear backward on the blocked GEMM, conv backward on its legacy
 * loop, whose float accumulation order the golden retrain benches
 * pin); the loops the fast paths are diffed against live in
 * tests/reference, outside the library.
 *
 * Every kernel is deterministic and thread-count invariant: each
 * output element is accumulated by exactly one worker in a fixed
 * ascending-k order, so SE_THREADS only moves wall-clock.
 */

#ifndef SE_KERNELS_KERNELS_HH
#define SE_KERNELS_KERNELS_HH

#include <cstdint>
#include <limits>

#include "base/thread_pool.hh"

namespace se {
namespace kernels {

/**
 * The thread budget: SE_THREADS when set (0 counts as 1), else
 * std::thread::hardware_concurrency(). Always >= 1. Every "-1 = one
 * per core" option in the library resolves to this value.
 */
int threadBudget();

/**
 * The process executor: threadBudget() workers, built on first use
 * and never replaced. Workers that call back into parallelFor run
 * inline (the pool's nested-parallelism guard).
 */
ThreadPool &pool();

/**
 * RAII suppression of kernel-level parallelism on this thread.
 * Outer fan-out layers (ServeEngine replicas, CompressionPipeline
 * units) wrap their per-task work in one so replica/unit parallelism
 * does not fight panel parallelism for the same cores.
 */
class SerialScope
{
  public:
    SerialScope();
    ~SerialScope();
    SerialScope(const SerialScope &) = delete;
    SerialScope &operator=(const SerialScope &) = delete;

  private:
    bool prev_;
};

/** True while a SerialScope is live on the calling thread. */
bool serialScopeActive();

/**
 * Fan fn(i), i in [0, n), over at most `width` executor workers (and
 * never more than the budget). Runs inline on the caller when width
 * <= 1, the budget is 1, a SerialScope is active, or the caller
 * already is an executor worker. Blocks until every index is done;
 * the first exception is rethrown.
 */
void parallelFor(int64_t n, const std::function<void(int64_t)> &fn,
                 int width = std::numeric_limits<int>::max());

} // namespace kernels
} // namespace se

#endif // SE_KERNELS_KERNELS_HH
