/**
 * @file
 * Process-wide configuration of the se::kernels layer: the shared
 * thread pool the blocked GEMM fans out over.
 *
 * Environment knob (read once, overridable programmatically):
 *  - SE_THREADS: kernel pool width. 0 => serial, negative or unset
 *      => one worker per core (the same convention and the same
 *      strict parser as RuntimeOptions: a malformed value makes the
 *      first pool() call throw std::invalid_argument).
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

#include "base/thread_pool.hh"

namespace se {
namespace kernels {

/**
 * The shared kernel pool, lazily built with SE_THREADS workers
 * (throws std::invalid_argument while SE_THREADS is malformed).
 * Distinct from the serve/pipeline pools: those fan out whole tasks
 * (requests, per-matrix decompositions) and their workers block on
 * this pool's GEMM panels only through the nested-parallelism guard
 * or a SerialScope.
 */
ThreadPool &pool();

/**
 * Select a kernel pool of the given width (test/bench hook). One
 * pool per width is built on first use and kept for the process
 * lifetime, so alternating widths reuses workers instead of spawning
 * new ones. Results are identical for any width by construction.
 */
void configureThreads(int threads);

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
 * Fan fn(i), i in [0, n), over the kernel pool — or run inline when
 * the pool is serial, a SerialScope is active, or the caller already
 * is a kernel-pool worker.
 */
void parallelFor(int64_t n, const std::function<void(int64_t)> &fn);

} // namespace kernels
} // namespace se

#endif // SE_KERNELS_KERNELS_HH
