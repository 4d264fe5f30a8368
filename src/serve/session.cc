#include "serve/session.hh"

#include <stdexcept>

#include "base/clock.hh"
#include "core/ce_basis.hh"
#include "kernels/ce_gemm.hh"

namespace se {
namespace serve {

Shape
sampleShape(const Tensor &t)
{
    if (t.ndim() == 4) {
        if (t.dim(0) != 1)
            throw std::invalid_argument(
                "serve request batch dim must be 1");
        return {t.dim(1), t.dim(2), t.dim(3)};
    }
    return t.shape();
}

/** One decomposed layer bound to its shipped pieces. */
struct BoundModel::Layer
{
    /** Ordinal among the net's Conv2d/Linear leaves (planCompression's
     *  layer index) and the weight's shape there. */
    size_t index = 0;
    Shape shape;

    struct Unit
    {
        const core::SeMatrix *piece = nullptr;  ///< into *model_
        /** Where the piece's rows land in the weight (installPiece's
         *  base and last-row width). */
        int64_t offset = 0;
        int64_t lastCols = 0;
        /** 4-bit storage form; filled only under CeDirect. */
        core::PackedCe packed;
        /** packed's decode table (CeDirect). */
        float lut[16] = {};
    };
    std::vector<Unit> units;
    /** CeDirect: the units as one gemmCeBLayer call into the weight. */
    std::vector<kernels::CeBPiece> cePieces;
};

namespace {

/** The net's Conv2d/Linear weights in planCompression's layer order. */
std::vector<Tensor *>
plannedWeights(nn::Sequential &net)
{
    std::vector<Tensor *> out;
    net.visit([&](nn::Layer &l) {
        if (auto *conv = dynamic_cast<nn::Conv2d *>(&l))
            out.push_back(&conv->weightTensor());
        else if (auto *lin = dynamic_cast<nn::Linear *>(&l))
            out.push_back(&lin->weightTensor());
    });
    return out;
}

} // namespace

BoundModel::BoundModel(
    nn::Sequential &net,
    std::shared_ptr<const std::vector<core::SeLayerRecord>> model,
    const core::SeOptions &se_opts, const core::ApplyOptions &apply_opts,
    const SessionOptions &opts)
    : model_(std::move(model)), source_(opts.weightSource)
{
    // Re-derive the slice geometry from the live architecture, with
    // pruning disabled (its effect is baked into the coefficients).
    core::ApplyOptions plan_opts = apply_opts;
    plan_opts.channelGammaThreshold = 0.0;
    const core::CompressionPlan plan =
        core::planCompression(net, se_opts, plan_opts);

    // The bound pieces point into *model_, which model_ keeps alive.
    std::vector<const Tensor *> decomposed;
    for (const core::RecordBinding &b :
         core::matchRecordsToPlan(plan, *model_)) {
        const core::PlannedLayer &pl = plan.layers[b.layerIndex];
        Layer bl;
        bl.index = b.layerIndex;
        bl.shape = pl.weight->shape();
        for (size_t k = 0; k < b.unitCount; ++k) {
            const core::DecompUnit &u = plan.units[b.unitBegin + k];
            const core::SeMatrix &piece = b.record->pieces[k];
            const int64_t last = u.rowOffset + piece.ce.dim(0) - 1;
            bl.units.push_back(
                {&piece, core::sliceRow(pl, u.filter, u.rowOffset).offset,
                 core::sliceRow(pl, u.filter, last).cols, {}, {}});
        }
        decomposed.push_back(pl.weight);
        layers_.push_back(std::move(bl));
    }

    // v3 dense residual: restore the non-decomposed state the records
    // cannot carry (pruned BN tensors, biases, undecomposed weights)
    // before anything runs. Full congruence is validated — a bundle
    // can never half-apply to a mismatched factory.
    if (opts.denseState && !opts.denseState->empty())
        core::installDenseState(net, *opts.denseState, decomposed);

    // CeDirect: keep each piece at the accelerator's storage width.
    // Packing is exact (codes are codes), so this is a one-time
    // transcode, not a quantization step; its cost is the CeDirect
    // cold-start price and lands in packMs(). Each piece's decode LUT
    // and its place in the weight are fixed here too, so a rebuild is
    // one gemmCeBLayer call per layer.
    if (source_ == WeightSource::CeDirect) {
        const auto t0 = SteadyClock::now();
        for (Layer &bl : layers_) {
            for (Layer::Unit &bu : bl.units) {
                bu.packed =
                    core::packCe(bu.piece->ce, bu.piece->alphabet);
                kernels::buildCeDecodeLut(bu.packed.alphabet, bu.lut);
                const core::PackedCe &p = bu.packed;
                const Tensor &basis = bu.piece->basis;
                bl.cePieces.push_back(
                    {p.rowMask.data(), p.nibbles.data(), p.rows, p.cols,
                     basis.data(), basis.dim(1), bu.lut, bu.offset,
                     bu.lastCols});
            }
        }
        packMs_ = msSince(t0);
    }
}

BoundModel::~BoundModel() = default;

size_t
BoundModel::layers() const
{
    return layers_.size();
}

InferenceSession::InferenceSession(
    std::unique_ptr<nn::Sequential> net,
    std::shared_ptr<const std::vector<core::SeLayerRecord>> model,
    const core::SeOptions &se_opts,
    const core::ApplyOptions &apply_opts, SessionOptions opts)
    : net_(std::move(net)), opts_(std::move(opts))
{
    if (!opts_.pipelineRebuild)  // attach() refuses it; skip the bind
        bound_ = std::make_shared<const BoundModel>(
            *net_, std::move(model), se_opts, apply_opts, opts_);
    attach();
}

InferenceSession::InferenceSession(std::unique_ptr<nn::Sequential> net,
                                   std::shared_ptr<const BoundModel> bound,
                                   SessionOptions opts)
    : net_(std::move(net)), bound_(std::move(bound)),
      opts_(std::move(opts))
{
    attach();
}

InferenceSession::~InferenceSession() = default;

void
InferenceSession::attach()
{
    if (opts_.pipelineRebuild)
        throw std::invalid_argument(
            "InferenceSession: pipelineRebuild is unsupported and "
            "must be false");
    const std::vector<Tensor *> weights = plannedWeights(*net_);
    layers_.resize(bound_->layers_.size());
    for (size_t i = 0; i < layers_.size(); ++i) {
        const BoundModel::Layer &bl = bound_->layers_[i];
        if (bl.index >= weights.size() ||
            weights[bl.index]->shape() != bl.shape)
            throw std::invalid_argument(
                "InferenceSession: net does not match its bound model");
        layers_[i].weight = weights[bl.index];
    }
    stats_.packMs = bound_->packMs();
}

size_t
InferenceSession::rebuildableLayers() const
{
    return layers_.size();
}

bool
InferenceSession::rebuildLayer(const BoundModel::Layer &bl, LayerState &ls)
{
    bool cold;
    if (ls.cacheValid && opts_.cacheRebuiltWeights) {
        *ls.weight = ls.cache;  // warm: one dense copy
        cold = false;
    } else {
        // Cold: rebuild every Ce*B slice into its place in the weight.
        // Under CeDirect one fused gemmCeBLayer call decodes the
        // packed 4-bit codes inside the micro-kernel and writes each
        // piece's rows straight into the tensor (bit-identical to the
        // dense reconstruct at every ISA).
        // The Dense path runs installPiece's row kernel on the bound
        // offsets.
        Tensor &w = *ls.weight;
        if (bound_->source_ == WeightSource::CeDirect)
            kernels::gemmCeBLayer(bl.cePieces.data(), bl.cePieces.size(),
                                  w.data());
        else
            for (const auto &bu : bl.units) {
                const core::SeMatrix &p = *bu.piece;
                core::ceBasisRows(p.ce.data(), p.basis.data(),
                                  p.ce.dim(0), p.ce.dim(1),
                                  p.basis.dim(1), w.data() + bu.offset,
                                  bu.lastCols);
            }
        if (opts_.cacheRebuiltWeights) {
            ls.cache = w;
            ls.cacheValid = true;
        }
        cold = true;
    }
    ls.stale = false;
    return cold;
}

void
InferenceSession::ensureRebuilt()
{
    // Layers rebuild inline, one after another: a CeDirect layer is
    // one gemmCeBLayer call of one-strip pieces, too short to pay for
    // a fan-out over the executor the other replicas share.
    const auto t0 = SteadyClock::now();
    bool rebuilt = false;
    for (size_t i = 0; i < layers_.size(); ++i) {
        if (!layers_[i].stale)
            continue;
        rebuilt = true;
        if (rebuildLayer(bound_->layers_[i], layers_[i]))
            ++stats_.coldRebuilds;
        else
            ++stats_.warmRebuilds;
    }
    if (rebuilt)
        stats_.rebuildMs += msSince(t0);
}

Tensor
InferenceSession::forward(const Tensor &batch)
{
    if (opts_.rebuildPerCall)
        invalidateWeights();
    ensureRebuilt();
    ++stats_.forwardCalls;
    return net_->forward(batch, /*train=*/false);
}

void
InferenceSession::invalidateWeights()
{
    for (auto &ls : layers_)
        ls.stale = true;
}

void
InferenceSession::clearRebuildCache()
{
    for (auto &ls : layers_) {
        ls.cacheValid = false;
        ls.cache = Tensor();
        ls.stale = true;
    }
}

} // namespace serve
} // namespace se
