#include "core/apply.hh"

#include <algorithm>
#include <cmath>

#include "core/ce_basis.hh"

namespace se {
namespace core {

namespace {

/** Split `rows` into near-equal slices no taller than max_rows. */
std::vector<std::pair<int64_t, int64_t>>
sliceRows(int64_t rows, int64_t max_rows, int64_t min_rows)
{
    std::vector<std::pair<int64_t, int64_t>> slices;
    if (max_rows <= 0 || rows <= max_rows) {
        slices.emplace_back(0, rows);
        return slices;
    }
    const int64_t count = (rows + max_rows - 1) / max_rows;
    const int64_t base = rows / count;
    int64_t extra = rows % count;
    int64_t at = 0;
    for (int64_t i = 0; i < count; ++i) {
        int64_t len = base + (extra-- > 0 ? 1 : 0);
        // Keep every slice at least min_rows tall (m >= n requirement).
        if (len < min_rows && !slices.empty()) {
            slices.back().second += len;
        } else {
            slices.emplace_back(at, len);
        }
        at += len;
    }
    return slices;
}

/**
 * A layer's report sums over its pieces. The zero rows and zero
 * elements of each Ce come from one pass and give exactly the counts
 * SeMatrix::vectorSparsity / elementSparsity / ceStorageBits imply.
 */
struct LayerSums
{
    int64_t rows = 0, zeroRows = 0, elems = 0, zeroElems = 0;
    int64_t ceBits = 0, basisBits = 0;
    double errWeighted = 0.0;
    int pieces = 0;

    void
    add(const SeMatrix &p, const SeOptions &se_opts)
    {
        const int64_t m = p.ce.dim(0), r = p.ce.dim(1);
        const float *c = p.ce.data();
        int64_t zero_rows = 0;
        for (int64_t i = 0; i < m; ++i) {
            int64_t z = 0;
            for (int64_t j = 0; j < r; ++j)
                z += c[i * r + j] == 0.0f;
            zeroElems += z;
            zero_rows += z == r;
        }
        rows += m;
        zeroRows += zero_rows;
        elems += m * r;
        // 1-bit row index plus the dense non-zero rows.
        ceBits += m + (m - zero_rows) * r * se_opts.coefBits;
        basisBits += p.basisStorageBits(se_opts.basisBits);
        errWeighted += p.reconRelError * (double)(m * r);
        ++pieces;
    }

    void
    conclude(LayerReport &rep) const
    {
        rep.pieces = pieces;
        rep.ceBits += ceBits;
        rep.basisBits += basisBits;
        rep.vectorSparsity = rows > 0 ? (double)zeroRows / rows : 0.0;
        rep.elementSparsity = elems > 0 ? (double)zeroElems / elems : 0.0;
        rep.reconRelError = elems > 0 ? errWeighted / (double)elems : 0.0;
        rep.decomposed = true;
    }
};

} // namespace

int64_t
CompressionReport::originalBits() const
{
    int64_t t = 0;
    for (const auto &l : layers)
        t += l.originalBits;
    return t;
}

int64_t
CompressionReport::compressedBits() const
{
    int64_t t = 0;
    for (const auto &l : layers) {
        if (l.decomposed)
            t += l.ceBits + l.basisBits;
        else
            t += l.weightCount * 8;  // undecomposed layers kept at 8b
    }
    return t;
}

int64_t
CompressionReport::ceBitsTotal() const
{
    int64_t t = 0;
    for (const auto &l : layers)
        t += l.ceBits;
    return t;
}

int64_t
CompressionReport::basisBitsTotal() const
{
    int64_t t = 0;
    for (const auto &l : layers)
        t += l.basisBits;
    return t;
}

double
CompressionReport::compressionRate() const
{
    const int64_t c = compressedBits();
    return c > 0 ? (double)originalBits() / (double)c : 0.0;
}

double
CompressionReport::overallVectorSparsity() const
{
    double num = 0.0;
    int64_t den = 0;
    for (const auto &l : layers)
        if (l.decomposed) {
            num += l.vectorSparsity * (double)l.weightCount;
            den += l.weightCount;
        }
    return den > 0 ? num / (double)den : 0.0;
}

double
CompressionReport::prunedParamRatio() const
{
    double num = 0.0;
    int64_t den = 0;
    for (const auto &l : layers)
        if (l.decomposed) {
            num += l.elementSparsity * (double)l.weightCount;
            den += l.weightCount;
        }
    return den > 0 ? num / (double)den : 0.0;
}

namespace {

/**
 * Append one unit per slice of the reshaped matrix `mat` (the per-
 * filter conv view or per-row FC view of `owner`).
 */
void
planUnits(CompressionPlan &plan, Tensor mat, size_t layer_index,
          int64_t owner, int64_t max_slice_rows)
{
    const int64_t rows = mat.dim(0), cols = mat.dim(1);
    for (auto [at, len] : sliceRows(rows, max_slice_rows, cols)) {
        DecompUnit u;
        u.layerIndex = layer_index;
        u.filter = owner;
        u.rowOffset = at;
        if (at == 0 && len == rows) {
            u.matrix = std::move(mat);
            plan.units.push_back(std::move(u));
            return;  // single-slice fast path
        }
        Tensor slice({len, cols});
        for (int64_t i = 0; i < len; ++i)
            for (int64_t j = 0; j < cols; ++j)
                slice.at(i, j) = mat.at(at + i, j);
        u.matrix = std::move(slice);
        plan.units.push_back(std::move(u));
    }
}

/** The per-filter conv reshape: (Cg*R, S) from filter f of (M,Cg,R,S). */
Tensor
convFilterMatrix(const Tensor &w, int64_t f)
{
    const int64_t cg = w.dim(1), r = w.dim(2), s = w.dim(3);
    Tensor mat({cg * r, s});
    for (int64_t c = 0; c < cg; ++c)
        for (int64_t kr = 0; kr < r; ++kr)
            for (int64_t ks = 0; ks < s; ++ks)
                mat.at(c * r + kr, ks) = w.at(f, c, kr, ks);
    return mat;
}

/** The per-row FC reshape: (ceil(C/S), S) from row f, zero padded. */
Tensor
fcRowMatrix(const Tensor &w, int64_t f, int64_t row_length, int64_t s)
{
    const int64_t rows = (row_length + s - 1) / s;
    Tensor mat({rows, s});
    for (int64_t j = 0; j < row_length; ++j)
        mat.at(j / s, j % s) = w[f * row_length + j];
    return mat;
}

} // namespace

std::vector<SeMatrix>
decomposeConvWeight(const Tensor &weight, const SeOptions &se_opts,
                    const ApplyOptions &apply_opts)
{
    // R == S > 1 assumed by the caller: the plan's per-filter
    // (Cg*R, S) reshape and slicing, decomposed unit by unit.
    CompressionPlan plan;
    for (int64_t f = 0; f < weight.dim(0); ++f)
        planUnits(plan, convFilterMatrix(weight, f), 0, f,
                  apply_opts.maxSliceRows);
    std::vector<SeMatrix> pieces;
    pieces.reserve(plan.units.size());
    for (const DecompUnit &u : plan.units)
        pieces.push_back(decomposeMatrix(u.matrix, se_opts));
    return pieces;
}

CompressionPlan
planCompression(nn::Sequential &net, const SeOptions &se_opts,
                const ApplyOptions &apply_opts)
{
    (void)se_opts;  // eligibility depends only on the apply options
    // Flatten the leaf layers in execution order so conv->BN pairs can
    // be detected for channel pruning.
    std::vector<nn::Layer *> leaves;
    net.visit([&](nn::Layer &l) { leaves.push_back(&l); });

    // Channel-wise pruning (applied once, before decomposition).
    if (apply_opts.channelGammaThreshold > 0.0) {
        for (size_t i = 0; i + 1 < leaves.size(); ++i) {
            auto *conv = dynamic_cast<nn::Conv2d *>(leaves[i]);
            auto *bn = dynamic_cast<nn::BatchNorm2d *>(leaves[i + 1]);
            if (!conv || !bn)
                continue;
            Tensor &gamma = bn->gammaTensor();
            Tensor &w = conv->weightTensor();
            const int64_t per_filter = w.size() / w.dim(0);
            for (int64_t ch = 0; ch < gamma.size(); ++ch) {
                if (std::abs(gamma[ch]) >=
                    apply_opts.channelGammaThreshold)
                    continue;
                gamma[ch] = 0.0f;
                bn->betaTensor()[ch] = 0.0f;
                for (int64_t k = 0; k < per_filter; ++k)
                    w[ch * per_filter + k] = 0.0f;
            }
        }
    }

    CompressionPlan plan;
    int layer_idx = 0;
    for (nn::Layer *l : leaves) {
        PlannedLayer pl;
        LayerReport &rep = pl.report;
        if (auto *conv = dynamic_cast<nn::Conv2d *>(l)) {
            Tensor &w = conv->weightTensor();
            rep.name = "conv" + std::to_string(layer_idx++) + "_" +
                       std::to_string(conv->kernelSize()) + "x" +
                       std::to_string(conv->kernelSize());
            rep.weightCount = w.size();
            rep.originalBits = w.size() * 32;

            // Channel sparsity after gamma pruning.
            const int64_t per_filter = w.size() / w.dim(0);
            int64_t dead = 0;
            for (int64_t f = 0; f < w.dim(0); ++f) {
                bool all_zero = true;
                for (int64_t k = 0; k < per_filter && all_zero; ++k)
                    all_zero = w[f * per_filter + k] == 0.0f;
                dead += all_zero;
            }
            rep.channelSparsity = (double)dead / (double)w.dim(0);

            if (w.size() < apply_opts.minWeightsToDecompose) {
                plan.layers.push_back(std::move(pl));
                continue;
            }
            if (conv->kernelSize() > 1) {
                pl.weight = &w;
                pl.convKxK = true;
                pl.kernelR = w.dim(2);
                pl.kernelS = w.dim(3);
                const size_t li = plan.layers.size();
                for (int64_t f = 0; f < w.dim(0); ++f)
                    planUnits(plan, convFilterMatrix(w, f), li, f,
                              apply_opts.maxSliceRows);
            } else if ((w.dim(1) + apply_opts.fcGroupSize - 1) /
                           apply_opts.fcGroupSize <
                       apply_opts.fcGroupSize) {
                // 1x1 conv too narrow for the FC reshape rule (would
                // produce a wide matrix): leave it dense.
                plan.layers.push_back(std::move(pl));
                continue;
            } else {
                // 1x1 conv: FC rule on the (M, C) view.
                pl.weight = &w;
                pl.kernelS = apply_opts.fcGroupSize;
                pl.rowLength = w.dim(1);
                const size_t li = plan.layers.size();
                for (int64_t f = 0; f < w.dim(0); ++f)
                    planUnits(plan,
                              fcRowMatrix(w, f, pl.rowLength,
                                          pl.kernelS),
                              li, f, apply_opts.maxSliceRows);
            }
            plan.layers.push_back(std::move(pl));
        } else if (auto *lin = dynamic_cast<nn::Linear *>(l)) {
            Tensor &w = lin->weightTensor();
            rep.name = "fc" + std::to_string(layer_idx++);
            rep.weightCount = w.size();
            rep.originalBits = w.size() * 32;
            const int64_t s = apply_opts.fcGroupSize;
            const int64_t rows = (w.dim(1) + s - 1) / s;
            if (w.size() < apply_opts.minWeightsToDecompose ||
                rows < s) {
                plan.layers.push_back(std::move(pl));
                continue;
            }
            pl.weight = &w;
            pl.kernelS = s;
            pl.rowLength = w.dim(1);
            const size_t li = plan.layers.size();
            for (int64_t f = 0; f < w.dim(0); ++f)
                planUnits(plan, fcRowMatrix(w, f, pl.rowLength, s), li,
                          f, apply_opts.maxSliceRows);
            plan.layers.push_back(std::move(pl));
        }
    }
    return plan;
}

SliceRow
sliceRow(const PlannedLayer &pl, int64_t filter, int64_t row)
{
    const int64_t s = pl.kernelS;
    if (pl.convKxK)
        return {filter * (pl.weight->size() / pl.weight->dim(0)) +
                    row * s,
                s};
    // FC rule (Linear or 1x1 conv): both store row f contiguously at
    // flat offset f * rowLength.
    return {filter * pl.rowLength + row * s,
            std::min(s, pl.rowLength - row * s)};
}

void
installPiece(const PlannedLayer &pl, int64_t filter, int64_t row_offset,
             const SeMatrix &piece)
{
    const int64_t m = piece.ce.dim(0), n = piece.basis.dim(1);
    SE_ASSERT(pl.weight && n == pl.kernelS &&
                  piece.basis.dim(0) == piece.ce.dim(1),
              "installPiece: piece does not fit its slice");
    // The slice's rows sit back to back at stride kernelS, so only the
    // base and the last row's width need sliceRow.
    const int64_t base = sliceRow(pl, filter, row_offset).offset;
    const int64_t last_cols =
        m > 0 ? sliceRow(pl, filter, row_offset + m - 1).cols : n;
    ceBasisRows(piece.ce.data(), piece.basis.data(), m, piece.ce.dim(1),
                n, pl.weight->data() + base, last_cols);
}

CompressionReport
finishCompression(const CompressionPlan &plan,
                  const std::vector<SeMatrix> &results,
                  const SeOptions &se_opts)
{
    SE_ASSERT(results.size() == plan.units.size(),
              "decomposition result count mismatch: ", results.size(),
              " vs ", plan.units.size());

    // Units are grouped by layer in plan order: write each piece into
    // its (disjoint) slice of the owning weight and add it to the
    // layer's report.
    CompressionReport report;
    report.layers.reserve(plan.layers.size());
    size_t ui = 0;
    for (size_t li = 0; li < plan.layers.size(); ++li) {
        const PlannedLayer &pl = plan.layers[li];
        LayerReport rep = pl.report;
        LayerSums sums;
        for (; ui < plan.units.size() && plan.units[ui].layerIndex == li;
             ++ui) {
            const DecompUnit &u = plan.units[ui];
            installPiece(pl, u.filter, u.rowOffset, results[ui]);
            sums.add(results[ui], se_opts);
        }
        if (sums.pieces > 0)
            sums.conclude(rep);
        report.layers.push_back(std::move(rep));
    }
    SE_ASSERT(ui == plan.units.size(), "unit bookkeeping error");
    return report;
}

CompressionReport
applySmartExchange(nn::Sequential &net, const SeOptions &se_opts,
                   const ApplyOptions &apply_opts)
{
    CompressionPlan plan = planCompression(net, se_opts, apply_opts);
    std::vector<SeMatrix> results;
    results.reserve(plan.units.size());
    for (const DecompUnit &u : plan.units)
        results.push_back(decomposeMatrix(u.matrix, se_opts));
    return finishCompression(plan, results, se_opts);
}

} // namespace core
} // namespace se
