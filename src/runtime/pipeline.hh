/**
 * @file
 * The parallel compression pipeline.
 *
 * CompressionPipeline runs core::applySmartExchange's work — one
 * independent ALS decomposition per reshaped weight slice — on the
 * process executor (kernels::pool()) at RuntimeOptions::threads
 * width, optionally through the decomposition cache, and reassembles
 * the CompressionReport deterministically. Because decomposeMatrix is
 * deterministic and every slice is independent, the result is
 * bit-identical to applySmartExchange's at any width; threads = 0 or
 * 1 runs the same units serially on the calling thread.
 */

#ifndef SE_RUNTIME_PIPELINE_HH
#define SE_RUNTIME_PIPELINE_HH

#include "core/apply.hh"
#include "runtime/decomp_cache.hh"
#include "runtime/options.hh"

namespace se {
namespace runtime {

/** Counters from the last CompressionPipeline::run(). */
struct PipelineStats
{
    size_t units = 0;       ///< decomposition tasks executed
    size_t cacheHits = 0;   ///< tasks answered from the cache
    /** min(resolved threads, budget); 0 or 1 = serial. */
    int threadsUsed = 0;
};

class CompressionPipeline
{
  public:
    explicit CompressionPipeline(RuntimeOptions opts = {})
        : opts_(opts),
          cache_(DecompCacheOptions{opts.cacheCapacity, opts.cacheDir})
    {
    }

    /**
     * Drop-in parallel equivalent of core::applySmartExchange: same
     * inputs, same in-place weight replacement, bit-identical report.
     */
    core::CompressionReport run(nn::Sequential &net,
                                const core::SeOptions &se_opts,
                                const core::ApplyOptions &apply_opts);

    const PipelineStats &stats() const { return stats_; }
    DecompCache &cache() { return cache_; }
    const RuntimeOptions &options() const { return opts_; }

  private:
    RuntimeOptions opts_;
    DecompCache cache_;
    PipelineStats stats_;
};

} // namespace runtime
} // namespace se

#endif // SE_RUNTIME_PIPELINE_HH
