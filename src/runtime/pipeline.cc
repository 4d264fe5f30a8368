#include "runtime/pipeline.hh"

#include <algorithm>

#include "kernels/kernels.hh"

namespace se {
namespace runtime {

core::CompressionReport
CompressionPipeline::run(nn::Sequential &net,
                         const core::SeOptions &se_opts,
                         const core::ApplyOptions &apply_opts)
{
    stats_ = PipelineStats{};

    const int threads = opts_.resolvedThreads();
    core::CompressionPlan plan =
        core::planCompression(net, se_opts, apply_opts);
    std::vector<core::SeMatrix> results(plan.units.size());
    stats_.units = plan.units.size();

    const uint64_t hits_before = cache_.hits();
    auto decompose = [&](int64_t i) {
        // One unit per worker already saturates the executor; the ALS
        // matmuls inside stay inline.
        kernels::SerialScope serial;
        const core::DecompUnit &u = plan.units[(size_t)i];
        if (opts_.cacheCapacity > 0)
            results[(size_t)i] = cache_.getOrCompute(u.matrix, se_opts);
        else
            results[(size_t)i] =
                core::decomposeMatrix(u.matrix, se_opts);
    };

    kernels::parallelFor((int64_t)plan.units.size(), decompose, threads);
    stats_.threadsUsed = std::min(threads, kernels::threadBudget());
    stats_.cacheHits = (size_t)(cache_.hits() - hits_before);

    return core::finishCompression(plan, results, se_opts);
}

} // namespace runtime
} // namespace se
