#include "serve/session.hh"

#include <stdexcept>

#include "base/clock.hh"
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
struct InferenceSession::BoundLayer
{
    /** Live weight inside net_ and its slice write-back geometry. */
    core::PlannedLayer geom;

    struct BoundUnit
    {
        const core::SeMatrix *piece = nullptr;  ///< into *model_
        int64_t filter = 0;
        int64_t rowOffset = 0;
        /** 4-bit storage form; filled only under CeDirect. */
        core::PackedCe packed;
        /** packed's decode table, built once at bind (CeDirect). */
        float lut[16] = {};
    };
    std::vector<BoundUnit> units;
    /** CeDirect: the units as one gemmCeBLayer call into the weight. */
    std::vector<kernels::CeBPiece> cePieces;

    bool stale = true;
    bool cacheValid = false;
    Tensor cache;  ///< assembled dense weight (warm-rebuild source)
};

InferenceSession::InferenceSession(
    std::unique_ptr<nn::Sequential> net,
    std::shared_ptr<const std::vector<core::SeLayerRecord>> model,
    const core::SeOptions &se_opts,
    const core::ApplyOptions &apply_opts, SessionOptions opts)
    : net_(std::move(net)), model_(std::move(model)), opts_(opts)
{
    if (opts_.pipelineRebuild)
        throw std::invalid_argument(
            "InferenceSession: pipelineRebuild is unsupported and "
            "must be false");
    // Re-derive the slice geometry from the live architecture, with
    // pruning disabled (its effect is baked into the coefficients).
    core::ApplyOptions plan_opts = apply_opts;
    plan_opts.channelGammaThreshold = 0.0;
    core::CompressionPlan plan =
        core::planCompression(*net_, se_opts, plan_opts);

    // The bound pieces point into *model_, which the session's
    // shared_ptr keeps alive.
    for (const core::RecordBinding &b :
         core::matchRecordsToPlan(plan, *model_)) {
        const core::PlannedLayer &pl = plan.layers[b.layerIndex];
        BoundLayer bl;
        bl.geom = pl;
        for (size_t k = 0; k < b.unitCount; ++k) {
            const core::DecompUnit &u = plan.units[b.unitBegin + k];
            bl.units.push_back(
                {&b.record->pieces[k], u.filter, u.rowOffset, {}, {}});
        }
        layers_.push_back(std::move(bl));
    }

    // v3 dense residual: restore the non-decomposed state the records
    // cannot carry (pruned BN tensors, biases, undecomposed weights)
    // before anything runs. Full congruence is validated — a bundle
    // can never half-apply to a mismatched factory.
    if (opts_.denseState && !opts_.denseState->empty()) {
        std::vector<const Tensor *> decomposed;
        decomposed.reserve(layers_.size());
        for (const BoundLayer &bl : layers_)
            decomposed.push_back(bl.geom.weight);
        core::installDenseState(*net_, *opts_.denseState, decomposed);
    }

    // CeDirect: keep each piece at the accelerator's storage width.
    // Packing is exact (codes are codes), so this is a one-time
    // transcode, not a quantization step; its cost is the CeDirect
    // cold-start price and lands in stats().packMs. Each piece's
    // decode LUT and its place in the weight are fixed here too, so a
    // rebuild is one gemmCeBLayer call per layer.
    if (opts_.weightSource == WeightSource::CeDirect) {
        const auto t0 = SteadyClock::now();
        for (BoundLayer &bl : layers_) {
            for (auto &bu : bl.units) {
                bu.packed =
                    core::packCe(bu.piece->ce, bu.piece->alphabet);
                kernels::buildCeDecodeLut(bu.packed.alphabet, bu.lut);
                const core::PackedCe &p = bu.packed;
                const Tensor &basis = bu.piece->basis;
                bl.cePieces.push_back(
                    {p.rowMask.data(), p.nibbles.data(), p.rows, p.cols,
                     basis.data(), basis.dim(1), bu.lut,
                     core::sliceRow(bl.geom, bu.filter, bu.rowOffset)
                         .offset,
                     core::sliceRow(bl.geom, bu.filter,
                                    bu.rowOffset + p.rows - 1)
                         .cols});
            }
        }
        stats_.packMs = msSince(t0);
    }
}

InferenceSession::~InferenceSession() = default;

size_t
InferenceSession::rebuildableLayers() const
{
    return layers_.size();
}

bool
InferenceSession::rebuildLayer(BoundLayer &bl)
{
    bool cold;
    if (bl.cacheValid && opts_.cacheRebuiltWeights) {
        *bl.geom.weight = bl.cache;  // warm: one dense copy
        cold = false;
    } else {
        // Cold: rebuild every Ce*B slice into its place in the weight.
        // Under CeDirect one fused gemmCeBLayer call decodes the
        // packed 4-bit codes inside the micro-kernel and writes each
        // piece's rows straight into the tensor (bit-identical to the
        // dense reconstruct at every ISA).
        Tensor &w = *bl.geom.weight;
        if (opts_.weightSource == WeightSource::CeDirect)
            kernels::gemmCeBLayer(bl.cePieces.data(), bl.cePieces.size(),
                                  w.data());
        else
            for (const auto &bu : bl.units)
                core::installPiece(bl.geom, bu.filter, bu.rowOffset,
                                   *bu.piece);
        if (opts_.cacheRebuiltWeights) {
            bl.cache = w;
            bl.cacheValid = true;
        }
        cold = true;
    }
    bl.stale = false;
    return cold;
}

void
InferenceSession::ensureRebuilt()
{
    // Layers rebuild inline, one after another: a CeDirect layer is
    // one small-n gemmCeBLayer call, too short to pay for a fan-out
    // over the kernel pool the other replicas share.
    const auto t0 = SteadyClock::now();
    bool rebuilt = false;
    for (BoundLayer &bl : layers_) {
        if (!bl.stale)
            continue;
        rebuilt = true;
        if (rebuildLayer(bl))
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
    for (auto &bl : layers_)
        bl.stale = true;
}

void
InferenceSession::clearRebuildCache()
{
    for (auto &bl : layers_) {
        bl.cacheValid = false;
        bl.cache = Tensor();
        bl.stale = true;
    }
}

} // namespace serve
} // namespace se
