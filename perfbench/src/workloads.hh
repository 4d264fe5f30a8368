/**
 * @file
 * The benchmark's workloads (see perfbench/README.md for why each one
 * exists and which layer metric should move which end-to-end metric).
 *
 *  - percall_v4: one VGG19-sim model served from a v4 bundle through
 *    core::StreamedModel, CeDirect, rebuilding W = Ce*B on every batch;
 *    closed loop keeping replicas x maxBatch requests in flight.
 *  - cached_open: VGG19-sim and VGG11-sim behind one ServeFront from
 *    in-memory records bundles, Dense source, cached weights; an open
 *    loop of seeded Poisson arrivals at a fixed rate.
 *  - compress: cold-cache CompressionPipeline passes over VGG19-sim,
 *    each through quantize, v4 save and an eager StreamedModel reopen.
 */

#ifndef PB_WORKLOADS_HH
#define PB_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "harness.hh"

namespace pb {

struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    int seconds = 10;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Where bundle files and the trace are written. */
    std::string workDir = ".";
};

RunResult runPercallV4(const RunConfig &cfg);
RunResult runCachedOpen(const RunConfig &cfg);
RunResult runCompress(const RunConfig &cfg);

/** Every per-layer metric name, in the order BENCHMARK.json lists
 *  them; a traced run reports each (0 where its workload does not
 *  exercise that layer). */
const std::vector<Metric> &perLayerCatalog();

/** Fill in every catalog metric `r` did not set, as 0. */
void completePerLayer(RunResult &r);

} // namespace pb

#endif // PB_WORKLOADS_HH
