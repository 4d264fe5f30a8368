/**
 * @file
 * Shared helpers for the benchmark binaries: deterministic training of
 * reduced-scale models, paper-scale storage projection from measured
 * sparsity, geometric means, and the JSON-emission idioms every
 * bench_* main used to hand-roll.
 */

#ifndef SE_BENCH_BENCH_UTIL_HH
#define SE_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/annotate.hh"
#include "accel/baselines.hh"
#include "accel/smartexchange_accel.hh"
#include "base/env.hh"
#include "core/trainer.hh"
#include "models/zoo.hh"
#include "runtime/options.hh"

namespace se {
namespace bench {

// ------------------------------------------------- JSON emission glue
//
// The bench binaries print JSON through std::printf; these are the
// two idioms (bool literals and array separators) that
// bench_kernels/bench_serve/bench_runtime each re-implemented.

/** JSON boolean literal. */
inline const char *
jsonBool(bool b)
{
    return b ? "true" : "false";
}

/** Array-element separator: "," while more items follow. */
inline const char *
jsonSep(size_t index, size_t count)
{
    return index + 1 < count ? "," : "";
}

// ------------------------------------------------ command-line counts

/**
 * A non-negative count from the command line (a thread or request
 * count), parsed whole by base::envIntNarrow. A typo such as "abc",
 * an unknown flag such as "--smok", trailing junk or a negative count
 * prints why and exits with status 2 before any work starts, so it
 * can never run the bench at some other size instead.
 */
inline int
argCount(const char *what, const char *value)
{
    try {
        if (value[0] == '-' && value[1] == '-')
            throw std::invalid_argument(std::string("unknown flag '") +
                                        value + "'");
        const int v = base::envIntNarrow(what, value);
        if (v < 0)
            throw std::invalid_argument(std::string(what) +
                                        " must be >= 0, got '" + value +
                                        "'");
        return v;
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(2);
    }
}

/**
 * Runtime options for the bench drivers: SE_THREADS in the environment
 * overrides (0 = serial); the default is one worker per
 * core. Sweep results are bit-identical either way — the knob only
 * moves wall-clock.
 */
inline runtime::RuntimeOptions
envRuntimeOptions()
{
    return runtime::RuntimeOptions::fromEnv();
}

/** The five accelerators of the paper's comparison, in figure order. */
inline std::vector<accel::AcceleratorPtr>
paperAccelerators()
{
    std::vector<accel::AcceleratorPtr> accs;
    accs.push_back(std::make_unique<accel::DianNao>());
    accs.push_back(std::make_unique<accel::Scnn>());
    accs.push_back(std::make_unique<accel::CambriconX>());
    accs.push_back(std::make_unique<accel::BitPragmatic>());
    accs.push_back(std::make_unique<accel::SmartExchangeAccel>());
    return accs;
}

/** Annotated paper-scale workloads for a list of model ids. */
inline std::vector<sim::Workload>
annotatedWorkloads(const std::vector<models::ModelId> &ids)
{
    std::vector<sim::Workload> ws;
    ws.reserve(ids.size());
    for (auto id : ids)
        ws.push_back(accel::annotatedWorkload(id));
    return ws;
}

/**
 * The Fig. 10-12 protocol hole: SCNN cannot run the squeeze-excite
 * EfficientNet-B0, so that cell is excluded.
 */
inline std::function<bool(size_t, size_t)>
scnnEffNetSkip(const std::vector<accel::AcceleratorPtr> &accs,
               const std::vector<models::ModelId> &ids)
{
    std::vector<bool> is_scnn, is_effnet;
    for (const auto &a : accs)
        is_scnn.push_back(a->name() == "SCNN");
    for (auto id : ids)
        is_effnet.push_back(id == models::ModelId::EfficientNetB0);
    return [is_scnn, is_effnet](size_t ai, size_t wi) {
        return is_scnn[ai] && is_effnet[wi];
    };
}

/** A trained reduced-scale model plus its task. */
struct TrainedModel
{
    std::unique_ptr<nn::Sequential> net;
    data::ClassificationTask task;
    double accuracy = 0.0;
};

/** Deterministically train a Sim-scale model on a synthetic task. */
inline TrainedModel
trainSimModel(models::ModelId id, int epochs = 8, int num_classes = 6,
              int64_t hw = 10, int64_t base_width = 6,
              uint64_t seed = 42)
{
    TrainedModel out;
    data::ClassSetConfig dcfg;
    dcfg.numClasses = num_classes;
    dcfg.height = dcfg.width = hw;
    dcfg.trainBatches = 12;
    dcfg.testBatches = 5;
    dcfg.noise = 0.4f;
    dcfg.seed = seed;
    dcfg.noise = 0.75f;  // hard enough that damage shows up
    out.task = data::makeClassification(dcfg);

    models::SimConfig mcfg;
    mcfg.numClasses = num_classes;
    mcfg.inHeight = mcfg.inWidth = hw;
    mcfg.baseWidth = base_width;
    mcfg.seed = seed;
    out.net = models::buildSim(id, mcfg);

    core::TrainConfig tc;
    tc.epochs = epochs;
    tc.lr = 0.05f;
    out.accuracy = core::trainClassifier(*out.net, out.task, tc);
    return out;
}

/** Paper-scale storage projection of the SmartExchange format. */
struct ProjectedStorage
{
    double originalMB = 0.0;  ///< FP32 dense
    double ceMB = 0.0;        ///< non-zero rows + 1-bit index
    double basisMB = 0.0;
    double
    paramMB() const
    {
        return ceMB + basisMB;
    }
    double
    compressionRate() const
    {
        return originalMB / std::max(paramMB(), 1e-12);
    }
};

/**
 * Project the storage of a paper-scale workload under the SmartExchange
 * format with the given measured vector sparsity (uniform), 4-bit
 * coefficients and 8-bit basis matrices.
 */
inline ProjectedStorage
projectStorage(const sim::Workload &w, double vector_sparsity,
               int coef_bits = 4, int basis_bits = 8)
{
    ProjectedStorage out;
    for (const auto &l : w.layers) {
        const int64_t s = std::max<int64_t>(l.s, 1);
        const int64_t rows = std::max<int64_t>(1, l.weightCount() / s);
        const int64_t nz_rows =
            (int64_t)((double)rows * (1.0 - vector_sparsity));
        const int64_t ce_bits = rows + nz_rows * s * coef_bits;
        int64_t basis_bits_total;
        if (l.kind == sim::LayerKind::Conv ||
            l.kind == sim::LayerKind::DepthwiseConv)
            basis_bits_total = l.m * s * s * basis_bits;
        else
            basis_bits_total =
                std::max<int64_t>(1, l.m / 64) * s * s * basis_bits;
        out.originalMB += (double)(l.weightCount() * 32) / 8e6;
        out.ceMB += (double)ce_bits / 8e6;
        out.basisMB += (double)basis_bits_total / 8e6;
    }
    return out;
}

/** Geometric mean of a series of positive ratios. */
inline double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / (double)v.size());
}

} // namespace bench
} // namespace se

#endif // SE_BENCH_BENCH_UTIL_HH
