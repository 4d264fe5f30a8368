/**
 * @file
 * Shared knobs of the se::runtime layer.
 */

#ifndef SE_RUNTIME_OPTIONS_HH
#define SE_RUNTIME_OPTIONS_HH

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "base/env.hh"
#include "base/failpoint.hh"
#include "kernels/dispatch.hh"
#include "kernels/kernels.hh"

namespace se {
namespace runtime {

/**
 * Weight storage the serve drivers hand to the serve layer
 * (runtime-level mirror of serve::WeightSource — the runtime layer
 * does not link against se::serve).
 */
enum class ServeWeightSource
{
    Dense,     ///< decoded float Ce matrices (the v2-era path)
    CeDirect,  ///< packed 4-bit codes through kernels::gemmCeB
};

/** Execution policy for the runtime drivers. */
struct RuntimeOptions
{
    /**
     * Fan-out width on the process executor (kernels::pool()). 0 and
     * 1 both run every unit serially on the calling thread; a larger
     * width is capped at the thread budget, and negative means the
     * whole budget. Results are bit-identical for any value.
     */
    int threads = 0;
    /**
     * Decomposition-cache capacity in entries; 0 disables caching.
     * Repeated sweeps (ablations, design-space scans) with identical
     * (weights, options) inputs then skip the ALS loop entirely, at
     * any thread count.
     */
    size_t cacheCapacity = 0;
    /**
     * Serving admission cap (SE_SERVE_QUEUE_CAP in the environment):
     * requests beyond this many queued-but-undispatched ones are shed
     * with serve::AdmissionError. 0 = unbounded. Consumed by the
     * serve-layer drivers (bench_serve, serve_demo), which copy it
     * into serve::ServeOptions::queueCap.
     */
    size_t serveQueueCap = 0;
    /**
     * Serving flush deadline in ms (SE_SERVE_DEADLINE_MS): > 0 makes
     * the serve drivers select FlushPolicy::Deadline with this bound
     * on the oldest queued request's age. <= 0 leaves the driver's
     * default policy in place.
     */
    double serveDeadlineMs = 0.0;
    /**
     * Which storage the serve drivers rebuild weights from
     * (SE_SERVE_WEIGHT_SOURCE = dense | ce). Responses are
     * bit-identical either way — CeDirect moves storage width and
     * rebuild wall-clock, never values.
     */
    ServeWeightSource serveWeightSource = ServeWeightSource::Dense;
    /**
     * Model-file version the drivers save bundles in
     * (SE_MODEL_FORMAT = 2 | 3 | 4). v4 is the streaming format:
     * adaptive per-column Ce bit widths, int8 basis (quantized at
     * compress time), checksummed piece directory served lazily
     * through core::StreamedModel. v3 packs Ce codes at fixed 4-bit
     * width and ships the dense residual; v2 is the legacy
     * byte-per-code records-only format.
     */
    int modelFormat = 3;
    /**
     * How the serve drivers open a v4 bundle (SE_STREAM_LOADER =
     * mmap | eager). `mmap` (default) opens lazily — O(meta) at
     * open, pieces decode on first touch. `eager` decodes and fully
     * validates everything up front. Responses are bit-identical
     * either way; only cold-start wall-clock moves. Meaningless
     * (and ignored) for v2/v3 bundles.
     */
    bool streamEager = false;
    /** Kept only for the benchmark driver; always false. */
    bool servePipeline = false;
    /** Kept only for the benchmark driver; always 0. */
    size_t prefetchDepth = 0;
    /**
     * Spill directory of the persistent DecompCache (SE_CACHE_DIR).
     * Empty (the default) keeps the cache memory-only; set, every
     * decomposition result is also written to disk (atomic
     * temp+rename, per-entry checksum) so compression sweeps and
     * serve cold-starts survive restarts and are shared across
     * processes pointed at the same directory. Results never depend
     * on this knob — a disk hit is bit-identical to a recompute.
     */
    std::string cacheDir;
    /**
     * Failpoint arming spec (SE_FAILPOINTS = name:policy,... with
     * policies once | 1inN | afterN | pF[@seed]), strictly parsed by
     * fromEnv — a malformed spec refuses to start instead of silently
     * not injecting. Empty arms nothing. Takes effect through
     * applyFailpoints(); see base/failpoint.hh.
     */
    std::string failpoints;

    /**
     * Arm exactly the failpoints of `failpoints` process-wide
     * (disarming anything armed before). Driver binaries call this
     * so SE_FAILPOINTS reaches the library's injection sites.
     */
    void
    applyFailpoints() const
    {
        failpoint::armFromSpec(failpoints);
    }

    /** The width after resolving negative to the thread budget. */
    int
    resolvedThreads() const
    {
        return threads >= 0 ? threads : kernels::threadBudget();
    }

    /**
     * The convention every driver binary shares: the whole thread
     * budget and a warm cache, with SE_THREADS in the environment
     * setting the width (0 = serial; the budget reads the same
     * value). Results never depend on it — it only moves wall-clock.
     *
     * Every SE_* knob is parsed strictly: a value that is not fully
     * recognized throws std::invalid_argument instead of being
     * silently coerced to a default.
     */
    static RuntimeOptions
    fromEnv(size_t cache_capacity = 4096)
    {
        RuntimeOptions ro;
        ro.threads = -1;
        if (const char *t = std::getenv("SE_THREADS"))
            ro.threads = base::envIntNarrow("SE_THREADS", t);
        ro.cacheCapacity = cache_capacity;
        // Dispatch reads SE_KERNEL_ISA itself on first use; this only
        // refuses a value parseKernelIsa does not recognize, matching
        // the other knobs' strictness.
        if (const char *isa = std::getenv("SE_KERNEL_ISA"))
            kernels::parseKernelIsa(isa);
        if (const char *c = std::getenv("SE_SERVE_QUEUE_CAP")) {
            const long long cap =
                base::envInt("SE_SERVE_QUEUE_CAP", c);
            if (cap < 0)
                throw std::invalid_argument(
                    "SE_SERVE_QUEUE_CAP must be >= 0, got '" +
                    std::string(c) + "'");
            ro.serveQueueCap = (size_t)cap;
        }
        if (const char *d = std::getenv("SE_SERVE_DEADLINE_MS"))
            ro.serveDeadlineMs =
                base::envDouble("SE_SERVE_DEADLINE_MS", d);
        if (const char *w = std::getenv("SE_SERVE_WEIGHT_SOURCE")) {
            if (!std::strcmp(w, "dense"))
                ro.serveWeightSource = ServeWeightSource::Dense;
            else if (!std::strcmp(w, "ce") ||
                     !std::strcmp(w, "cedirect"))
                ro.serveWeightSource = ServeWeightSource::CeDirect;
            else
                throw std::invalid_argument(
                    "SE_SERVE_WEIGHT_SOURCE must be dense|ce, got '" +
                    std::string(w) + "'");
        }
        if (const char *f = std::getenv("SE_MODEL_FORMAT")) {
            const long long v = base::envInt("SE_MODEL_FORMAT", f);
            if (v != 2 && v != 3 && v != 4)
                throw std::invalid_argument(
                    "SE_MODEL_FORMAT must be 2, 3 or 4, got '" +
                    std::string(f) + "'");
            ro.modelFormat = (int)v;
        }
        if (const char *s = std::getenv("SE_STREAM_LOADER")) {
            if (!std::strcmp(s, "mmap"))
                ro.streamEager = false;
            else if (!std::strcmp(s, "eager"))
                ro.streamEager = true;
            else
                throw std::invalid_argument(
                    "SE_STREAM_LOADER must be mmap|eager, got '" +
                    std::string(s) + "'");
        }
        if (const char *d = std::getenv("SE_CACHE_DIR")) {
            if (*d == '\0')
                throw std::invalid_argument(
                    "SE_CACHE_DIR must name a directory (unset it "
                    "to disable the persistent cache)");
            ro.cacheDir = d;
        }
        if (const char *fp = std::getenv("SE_FAILPOINTS")) {
            // Validate the whole spec now — a typo'd policy must
            // refuse the run, not silently skip injection.
            failpoint::parseSpec(fp);
            ro.failpoints = fp;
        }
        return ro;
    }
};

} // namespace runtime
} // namespace se

#endif // SE_RUNTIME_OPTIONS_HH
