/**
 * @file
 * Process-wide configuration of the se::kernels layer: which conv
 * implementation the nn layers pick by default, and the shared thread
 * pool the blocked GEMM fans out over.
 *
 * Environment knobs (read once, overridable programmatically):
 *  - SE_CONV_IMPL = auto | naive | gemm
 *      auto  (default): forward passes lower onto im2col+GEMM (the
 *             fast path is bit-identical to the legacy loops, so
 *             golden outputs are unchanged); conv backward keeps the
 *             legacy loop, whose float accumulation order a GEMM
 *             lowering cannot reproduce exactly.
 *      naive: every layer runs the legacy scalar loops (the escape
 *             hatch correctness tests diff against).
 *      gemm:  backward lowers onto GEMM too; gradW/gradB stay
 *             bit-identical, gx agrees to ~1e-4 relative (col2im
 *             re-associates the scatter-add).
 *  - SE_THREADS: kernel pool width. 0 => serial, negative or unset
 *      => one worker per core (the same convention and the same
 *      strict parser as RuntimeOptions: a malformed value makes the
 *      first pool() call throw std::invalid_argument).
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

/** Which lowering the nn layers use. */
enum class ConvImpl {
    Auto,        ///< fast where bit-identical, legacy elsewhere
    Naive,       ///< legacy scalar loops everywhere
    Im2colGemm,  ///< im2col + blocked GEMM everywhere
};

/**
 * Parse SE_CONV_IMPL from the environment (the single parser — the
 * process-wide default and RuntimeOptions::fromEnv both use it).
 * Unset/empty means Auto; anything else but auto|naive|gemm is fatal.
 */
ConvImpl convImplFromEnv();

/** Process-wide default, initialized from SE_CONV_IMPL. */
ConvImpl defaultConvImpl();

/** Override the process-wide default (benches/tests). */
void setDefaultConvImpl(ConvImpl impl);

/**
 * Whether a bit-identical lowering (conv forward, Linear both
 * directions, matmul) should take the fast path: yes unless the
 * legacy loops were explicitly requested.
 */
bool useBitIdenticalFastPath(ConvImpl impl);

/**
 * Whether a re-associating lowering (conv backward's col2im
 * scatter-add) should take the fast path: only when Im2colGemm was
 * explicitly requested — Auto keeps the legacy loop so the
 * golden-pinned retrain benches never move.
 */
bool useReassociatingFastPath(ConvImpl impl);

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
 * Resize the kernel pool (test hook). Must not race in-flight
 * kernels; results are identical for any width by construction.
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
