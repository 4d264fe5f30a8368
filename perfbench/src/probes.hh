/**
 * @file
 * Per-layer probes of the traced run. Each one times calls into a
 * module's public API from outside — an InferenceSession replay, one
 * top-level net child at a time, kernels::gemmCeB on a layer's packed
 * pieces, a 1-thread sgemm ceiling, the accelerator model on the same
 * layer shape, and the compression plan/decompose/finish split — so
 * the numbers can be read against the end-to-end metrics of the same
 * workload without any instrumentation inside the program.
 */

#ifndef PB_PROBES_HH
#define PB_PROBES_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/model_file.hh"
#include "serve/session.hh"
#include "trace.hh"

namespace pb {

struct Subject;

/** One InferenceSession replayed at the serve batch size. */
struct SessionProbe
{
    double rebuildMs = 0.0;     ///< per forward
    double forwardMs = 0.0;     ///< per forward, rebuild excluded
    double packMs = 0.0;        ///< one-time CeDirect bind cost
    double coldRebuilds = 0.0;  ///< layers the first forward rebuilt
};

/** Builds one session of the workload's model and options. */
using SessionFactory =
    std::function<std::unique_ptr<se::serve::InferenceSession>()>;

/**
 * Replay `batch` through `threads` fresh sessions at once, each
 * single-threaded like a serve replica, for at least `minMs`: an
 * engine's replicas contend for the same cores and caches, so the
 * replay does too. Per-forward times are averaged over the threads.
 */
SessionProbe probeSession(const SessionFactory &make,
                          const se::Tensor &batch, int threads,
                          double minMs, Tracer *tracer);

/** One conv/linear top-level child of the net. */
struct LayerProbe
{
    size_t child = 0;
    double forwardMs = 0.0;
    double gflopS = 0.0;     ///< FLOPs from shapes / forwardMs
    double rebuildMs = 0.0;  ///< gemmCeB over the layer's pieces
    double rebuildGflop = 0.0;  ///< dense-equivalent FLOPs of that
    int64_t accelCycles = 0;    ///< accelerator model, same shape
};

/**
 * Time each conv/linear child of the session's net on its real input
 * (after one session forward rebuilt the weights); with `rebuild` also
 * time kernels::gemmCeB on the layer's core::packCe pieces, and with
 * `accel` run accel::SmartExchangeAccel::runLayer on its shape.
 */
std::vector<LayerProbe> probeLayers(
    se::serve::InferenceSession &session, const se::Tensor &batch,
    const std::vector<se::core::SeLayerRecord> &records, bool rebuild,
    bool accel, double minMs, Tracer *tracer);

/** 1-thread sgemm rate (GFLOP/s) on an n x n x n problem. */
double sgemmPeakGflops(int64_t n, double minMs);

/** The compression pass split at its public seams. */
struct UnitProbe
{
    double planMs = 0.0;
    double finishMs = 0.0;
    double unitP50Ms = 0.0;
    double unitMaxMs = 0.0;
    /** sum of unit ms / (threads x decompose wall): below 1 by the
     *  fan-out overhead and the slowest-unit tail. */
    double busyShare = 0.0;
};

/** planCompression, every unit through core::decomposeMatrix on a
 *  `threads`-wide pool (as CompressionPipeline fans them out), then
 *  finishCompression. */
UnitProbe probeUnits(const Subject &subject, int threads,
                     Tracer *tracer);

} // namespace pb

#endif // PB_PROBES_HH
