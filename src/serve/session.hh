/**
 * @file
 * InferenceSession — run inference directly from the shipped
 * SmartExchange form.
 *
 * The paper's deployment story is that the Ce*B form is what lives in
 * storage; dense weights exist only transiently, rebuilt by the
 * accelerator's rebuild engine as tiles stream in. This class is the
 * software mirror: it holds a (shared, immutable) bundle of
 * SeLayerRecord pieces plus a live architecture instance, and
 * materializes W = Ce*B into the live weight tensors on demand.
 *
 * Two policies bracket the paper's storage/compute trade-off:
 *  - cached (default): each layer is rebuilt once, lazily, and a
 *    per-layer copy of the assembled weight is kept so later rebuilds
 *    are a tensor copy instead of per-slice matmuls;
 *  - rebuild-per-call: every forward() re-materializes all weights,
 *    emulating an accelerator that never persists the dense form
 *    (optionally still through the per-layer cache, modelling a warm
 *    on-chip rebuild buffer).
 *
 * A session is single-threaded by design — forward() mutates layer
 * caches. ServeEngine owns one replica per worker. Stale layers are
 * rebuilt inline, one after another, on the calling thread.
 */

#ifndef SE_SERVE_SESSION_HH
#define SE_SERVE_SESSION_HH

#include <memory>
#include <vector>

#include "core/model_file.hh"
#include "nn/blocks.hh"

namespace se {
namespace serve {

/**
 * Per-sample shape of one serve-request input: a (C, H, W)-style
 * tensor is returned as-is, a 4-D tensor must carry a leading batch
 * dim of 1 (stripped) — anything else throws std::invalid_argument.
 * Shared by ServeEngine's admission check and by callers that want to
 * pre-validate traffic.
 */
Shape sampleShape(const Tensor &t);

/**
 * What the rebuild engine reads W = Ce*B from.
 *
 *  - Dense: each piece's decoded float Ce matrix (the v2-era path).
 *  - CeDirect: the packed 4-bit codes (core::PackedCe — the model
 *    file v3 wire form), decoded inside the micro-kernel by one
 *    kernels::gemmCeBLayer call per layer that writes every piece
 *    straight into the live weight. The stored datapath width reaches
 *    the hot loop, mirroring the accelerator. Responses are
 *    bit-identical to Dense: nibble decode is exact (powers of two)
 *    and every element keeps its accumulation order, so no tolerance
 *    is needed. Requires a 4-bit alphabet (numLevels <= 7,
 *    i.e. SeOptions::coefBits == 4); binding a wider model throws
 *    core::ModelFileError.
 *
 * CeDirect is wire-format agnostic: bind packs whatever SeMatrix the
 * loader produced, so a v4 bundle's adaptive-width pieces transcode
 * to the same fixed 4-bit PackedCe here (codes are codes) and serve
 * bit-identically to the v3 path.
 */
enum class WeightSource
{
    Dense,
    CeDirect,
};

/** Weight rebuild policy of a session. */
struct SessionOptions
{
    /**
     * Re-materialize W = Ce*B on every forward() instead of once,
     * emulating the accelerator's no-dense-storage operating point.
     */
    bool rebuildPerCall = false;
    /**
     * Keep a per-layer copy of each assembled weight tensor so repeat
     * rebuilds are a copy (warm) instead of per-slice reconstructions
     * (cold). Disable to force every rebuild cold.
     */
    bool cacheRebuiltWeights = true;
    /** Storage the cold rebuild path consumes. */
    WeightSource weightSource = WeightSource::Dense;
    /** Kept only for the benchmark driver; true throws. */
    bool pipelineRebuild = false;
    /**
     * Model-file v3 dense residual (BN gamma/beta/running stats,
     * biases, undecomposed weights), installed into the net at bind
     * time with full congruence validation — this is what makes a
     * channel-pruned bundle servable with no out-of-band restore.
     * Null or empty keeps the legacy contract: the factory net must
     * bit-reproduce the compression-time non-decomposed state.
     */
    std::shared_ptr<const std::vector<core::DenseTensor>> denseState;
};

/** Rebuild-engine counters of one session. */
struct SessionStats
{
    uint64_t forwardCalls = 0;
    uint64_t coldRebuilds = 0;  ///< layers assembled from Ce*B pieces
    uint64_t warmRebuilds = 0;  ///< layers restored from the cache
    /** Total wall-clock spent rebuilding; every rebuild runs inline,
     *  so forward() blocks on all of it. */
    double rebuildMs = 0.0;
    /**
     * One-time CeDirect bind cost: wall-clock the session's BoundModel
     * spent packing the records' Ce matrices to 4-bit form (the
     * cold-start price of serving at the stored datapath width, paid
     * once per model however many sessions share the bind; 0 under
     * WeightSource::Dense).
     */
    double packMs = 0.0;
};

/**
 * A shipped model bound for the rebuild engine, once per model: the
 * records matched to the slice plan and, under CeDirect, every piece
 * packed to 4-bit codes with its decode LUT and its place in the
 * weight. Immutable after construction and shared by shared_ptr<const>
 * among all sessions serving the model, which may read it
 * concurrently; each session keeps only its net, rebuild cache and
 * stats.
 *
 * It holds no pointer into any net: layers are kept by their ordinal
 * among the net's Conv2d/Linear leaves (planCompression's order), and
 * each session resolves its own weight tensors from that.
 */
class BoundModel
{
  public:
    /**
     * Bind `model` to `net` (see InferenceSession's CONTRACT): match
     * the records to net's slice plan (throws core::ModelFileError on
     * any incongruence), install opts.denseState into `net`, and under
     * opts.weightSource == CeDirect pack every piece. `net`, and any
     * clone of it taken afterwards, can then serve through
     * InferenceSession(net, bound, opts). Only opts.weightSource and
     * opts.denseState are read.
     */
    BoundModel(nn::Sequential &net,
               std::shared_ptr<const std::vector<core::SeLayerRecord>> model,
               const core::SeOptions &se_opts,
               const core::ApplyOptions &apply_opts,
               const SessionOptions &opts);

    ~BoundModel();
    BoundModel(const BoundModel &) = delete;
    BoundModel &operator=(const BoundModel &) = delete;

    /** Number of decomposed (rebuildable) layers. */
    size_t layers() const;
    /** Wall-clock of the CeDirect pack (0 under Dense). */
    double packMs() const { return packMs_; }

  private:
    friend class InferenceSession;
    struct Layer;

    std::shared_ptr<const std::vector<core::SeLayerRecord>> model_;
    WeightSource source_;
    std::vector<Layer> layers_;
    double packMs_ = 0.0;
};

class InferenceSession
{
  public:
    /**
     * Bind a shipped model to a freshly built architecture instance:
     * build a BoundModel from `net`, then attach to it. The net's
     * decomposed-layer geometry must match the records (same
     * architecture and ApplyOptions as at compression time); throws
     * core::ModelFileError otherwise. The records stay shared and
     * immutable — the compressed form is the storage of record.
     *
     * CONTRACT: records carry only the decomposed weights. Every
     * other tensor — BN gamma/beta/running stats, biases, layers too
     * small to decompose — comes from ONE of two places:
     *
     *  - SessionOptions::denseState (a model-file v3 bundle's dense
     *    residual): installed into the bound net with full congruence
     *    validation (throws core::ModelFileError on any name/shape
     *    drift). This is the only way to serve a channel-pruned
     *    model, whose BN tensors were mutated at compression time.
     *  - the factory net as built (denseState null/empty): the
     *    factory must bit-reproduce the compression-time net's
     *    non-decomposed state (e.g. the same seeded builder), and no
     *    congruence check can catch a drift there.
     *
     * Either way that state lives in the net the model was bound to;
     * a session attached to a clone of that net inherits it.
     *
     * Throws std::invalid_argument if opts.pipelineRebuild is set.
     */
    InferenceSession(
        std::unique_ptr<nn::Sequential> net,
        std::shared_ptr<const std::vector<core::SeLayerRecord>> model,
        const core::SeOptions &se_opts,
        const core::ApplyOptions &apply_opts,
        SessionOptions opts = {});

    /**
     * Attach to an existing bind. `net` must be the net `bound` was
     * built from, or a clone of it taken after the bind (its dense
     * state is the one the session serves). The weight source is
     * bound's; opts contributes only the rebuild policy
     * (rebuildPerCall, cacheRebuiltWeights). Throws
     * std::invalid_argument if opts.pipelineRebuild is set or net's
     * decomposed layers do not have bound's shapes.
     */
    InferenceSession(std::unique_ptr<nn::Sequential> net,
                     std::shared_ptr<const BoundModel> bound,
                     SessionOptions opts = {});

    ~InferenceSession();
    InferenceSession(const InferenceSession &) = delete;
    InferenceSession &operator=(const InferenceSession &) = delete;

    /**
     * Eval-mode forward of a (N, ...) batch, rebuilding weights first
     * per the session policy.
     */
    Tensor forward(const Tensor &batch);

    /** Mark every decomposed layer stale (next forward rebuilds). */
    void invalidateWeights();

    /** Drop the per-layer rebuilt-weight cache (next rebuild is cold). */
    void clearRebuildCache();

    /** Number of decomposed (rebuildable) layers. */
    size_t rebuildableLayers() const;

    const SessionStats &stats() const { return stats_; }
    nn::Sequential &net() { return *net_; }
    const BoundModel &boundModel() const { return *bound_; }

  private:
    /** This session's side of one bound layer. */
    struct LayerState
    {
        Tensor *weight = nullptr;  ///< into *net_
        bool stale = true;
        bool cacheValid = false;
        Tensor cache;  ///< assembled dense weight (warm-rebuild source)
    };

    /** Resolve every bound layer's weight in *net_. */
    void attach();
    /**
     * Whether one layer rebuild was cold (folded into stats_ by its
     * caller, which also owns the wall-clock timing).
     */
    bool rebuildLayer(const BoundModel::Layer &bl, LayerState &ls);
    void ensureRebuilt();

    std::unique_ptr<nn::Sequential> net_;
    std::shared_ptr<const BoundModel> bound_;
    SessionOptions opts_;
    std::vector<LayerState> layers_;
    SessionStats stats_;
};

} // namespace serve
} // namespace se

#endif // SE_SERVE_SESSION_HH
