#include "core/smart_exchange.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "core/ce_basis.hh"
#include "linalg/linalg.hh"

namespace se {
namespace core {

namespace {

/**
 * Normalize each column of ce to unit L2 norm, scaling the matching row
 * of basis so the product Ce * B is unchanged. Zero columns are left
 * alone. Only the live rows are visited: every other row is +0, which
 * adds +0.0 to a norm and divides to +0, so skipping it changes no
 * bit. `norms` is caller-owned scratch of r doubles; every column's
 * norm is still accumulated in ascending row order.
 */
void
normalizeColumns(Tensor &ce, const std::vector<int64_t> &live,
                 Tensor &basis, std::vector<double> &norms)
{
    const int64_t r = ce.dim(1), n = basis.dim(1);
    float *c = ce.data();
    float *b = basis.data();
    std::fill(norms.begin(), norms.end(), 0.0);
    for (int64_t i : live)
        for (int64_t j = 0; j < r; ++j)
            norms[(size_t)j] += (double)c[i * r + j] * c[i * r + j];
    // A skipped (near-zero) column divides and multiplies by 1.0
    // instead, which leaves every float exactly as it was, so the
    // scaling loops need no branch.
    for (int64_t j = 0; j < r; ++j) {
        const double norm = std::sqrt(norms[(size_t)j]);
        norms[(size_t)j] = norm < 1e-12 ? 1.0 : norm;
    }
    for (int64_t i : live)
        for (int64_t j = 0; j < r; ++j)
            c[i * r + j] = (float)(c[i * r + j] / norms[(size_t)j]);
    for (int64_t j = 0; j < r; ++j)
        for (int64_t k = 0; k < n; ++k)
            b[j * n + k] = (float)(b[j * n + k] * norms[(size_t)j]);
}

/** Caller-owned buffers of sparsifyRows, sized once per matrix. */
struct SparsifyScratch
{
    explicit SparsifyScratch(int64_t m) : rowMag((size_t)m), mask((size_t)m)
    {
        order.reserve((size_t)m);
    }
    std::vector<double> rowMag;
    std::vector<int64_t> order;
    std::vector<uint8_t> mask;  ///< the pass's row mask (1 = kept)
};

/**
 * Zero rows of ce whose max |element| is below theta; also honour a
 * minimum vector-sparsity floor by pruning the smallest-norm rows.
 * At least `min_keep` rows (the basis rank) always survive so no
 * filter is zeroed outright — the paper's per-layer manual Sc control
 * implies the same safeguard. The selection runs over all m rows:
 * the rows outside `live` are +0, so they take part with magnitude 0,
 * exactly as if they were scanned. The pruned live rows are zeroed
 * and dropped from `live` (a row once pruned stays pruned).
 */
void
sparsifyRows(Tensor &ce, std::vector<int64_t> &live, double theta,
             double min_vector_sparsity, int64_t min_keep,
             SparsifyScratch &scratch)
{
    const int64_t m = ce.dim(0), r = ce.dim(1);
    float *c = ce.data();
    std::vector<double> &row_mag = scratch.rowMag;
    std::vector<uint8_t> &keep = scratch.mask;
    std::fill(row_mag.begin(), row_mag.end(), 0.0);
    for (int64_t i : live) {
        double mx = 0.0;
        for (int64_t j = 0; j < r; ++j)
            mx = std::max(mx, (double)std::abs(c[i * r + j]));
        row_mag[(size_t)i] = mx;
    }

    int64_t zeroed = 0;
    for (int64_t i = 0; i < m; ++i) {
        keep[(size_t)i] = !(row_mag[(size_t)i] < theta);
        zeroed += !keep[(size_t)i];
    }

    // Enforce the sparsity floor by dropping the weakest extra rows,
    // but never below min_keep survivors.
    const int64_t want = std::min(
        (int64_t)std::ceil(min_vector_sparsity * m),
        std::max<int64_t>(0, m - min_keep));
    std::vector<int64_t> &order = scratch.order;
    order.clear();
    if (zeroed < want) {
        for (int64_t i = 0; i < m; ++i)
            if (keep[(size_t)i])
                order.push_back(i);
        std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
            return row_mag[(size_t)a] < row_mag[(size_t)b];
        });
        for (int64_t k = 0; k < want - zeroed &&
                            k < (int64_t)order.size(); ++k)
            keep[(size_t)order[(size_t)k]] = 0;
    } else if (zeroed > m - min_keep) {
        // Threshold pruning went too far: resurrect the strongest
        // pruned rows (their values return on the next Ce refit).
        for (int64_t i = 0; i < m; ++i)
            if (!keep[(size_t)i])
                order.push_back(i);
        std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
            return row_mag[(size_t)a] > row_mag[(size_t)b];
        });
        for (int64_t k = 0; k < zeroed - (m - min_keep) &&
                            k < (int64_t)order.size(); ++k)
            keep[(size_t)order[(size_t)k]] = 1;
    }

    size_t kept = 0;
    for (const int64_t i : live) {
        if (keep[(size_t)i])
            live[kept++] = i;
        else
            std::fill(c + i * r, c + (i + 1) * r, 0.0f);
    }
    live.resize(kept);
}

double
rowVectorSparsity(const Tensor &ce)
{
    const int64_t m = ce.dim(0), r = ce.dim(1);
    int64_t zero_rows = 0;
    for (int64_t i = 0; i < m; ++i) {
        bool all_zero = true;
        for (int64_t j = 0; j < r; ++j)
            if (ce.at(i, j) != 0.0f) {
                all_zero = false;
                break;
            }
        zero_rows += all_zero;
    }
    return m > 0 ? (double)zero_rows / (double)m : 0.0;
}

} // namespace

Tensor
SeMatrix::reconstruct() const
{
    SE_ASSERT(ce.ndim() == 2 && basis.ndim() == 2 &&
                  basis.dim(0) == ce.dim(1),
              "reconstruct: Ce and B ranks disagree");
    Tensor out({ce.dim(0), basis.dim(1)});
    ceBasisRows(ce.data(), basis.data(), ce.dim(0), ce.dim(1),
                basis.dim(1), out.data(), basis.dim(1));
    return out;
}

double
SeMatrix::vectorSparsity() const
{
    return rowVectorSparsity(ce);
}

double
SeMatrix::elementSparsity() const
{
    int64_t zeros = 0;
    for (int64_t i = 0; i < ce.size(); ++i)
        zeros += ce[i] == 0.0f;
    return ce.size() > 0 ? (double)zeros / (double)ce.size() : 0.0;
}

int64_t
SeMatrix::ceStorageBits(int coef_bits) const
{
    // 1-bit direct vector index per row; non-zero rows stored dense.
    const int64_t m = ce.dim(0), r = ce.dim(1);
    const int64_t nonzero_rows =
        m - (int64_t)std::llround(vectorSparsity() * (double)m);
    return m /* index bits */ + nonzero_rows * r * coef_bits;
}

int64_t
SeMatrix::basisStorageBits(int basis_bits) const
{
    return basis.dim(0) * basis.dim(1) * basis_bits;
}

SeMatrix
decomposeMatrix(const Tensor &w, const SeOptions &opts, SeTrace *trace)
{
    SE_ASSERT(w.ndim() == 2, "decomposeMatrix needs a 2-D weight");
    const int64_t m = w.dim(0), n = w.dim(1);
    SE_ASSERT(n <= m, "expected tall matrix (m >= n); got ", m, "x", n);
    for (int64_t i = 0; i < w.size(); ++i)
        SE_ASSERT(std::isfinite(w[i]), "decomposeMatrix needs finite "
                  "weights; got non-finite ", w[i], " at (", i / n,
                  ", ", i % n, ")");

    const double w_norm = std::max(linalg::frobNorm(w), 1e-30);

    SeMatrix out;
    // Paper initialization: Ce = W, B = I (r = n). out.ce / out.basis
    // are the loop's work buffers: every step below updates them in
    // place, so an iteration allocates nothing.
    out.ce = w;
    out.basis = eye(n);
    linalg::AlsSolver als(w, n, opts.ridge);
    std::vector<double> col_norms((size_t)n);
    SparsifyScratch scratch(m);
    // The live (unpruned) rows, ascending. Pruning is monotone and a
    // pruned row is exactly +0 from then on, so every step but the
    // sparsifier visits these rows only (see normalizeColumns and
    // AlsSolver for why each skipped term changes no bit).
    std::vector<int64_t> live((size_t)m);
    std::iota(live.begin(), live.end(), 0);

    Tensor identity;
    double id_norm = 0.0;
    if (trace) {
        identity = eye(n);
        id_norm = linalg::frobNorm(identity);
    }
    auto record = [&]() {
        if (!trace)
            return;
        trace->reconError.push_back(
            linalg::frobDiff(w, out.reconstruct()) / w_norm);
        trace->vectorSparsity.push_back(rowVectorSparsity(out.ce));
        trace->basisDrift.push_back(
            linalg::frobDiff(out.basis, identity) / id_norm);
        trace->liveRows.push_back((double)live.size() / (double)m);
    };

    // The iteration state is Ce's live rows and the live count, and
    // nothing else: every step is a deterministic function of them
    // (normalizeColumns only scales the incoming B, which fitBasis
    // overwrites before anything reads it), and pruning is monotone,
    // so an equal count means an equal live list. `entry` holds the
    // live rows as the iteration found them (r = n), sized once.
    std::vector<float> entry((size_t)(m * n));
    const size_t row_bytes = (size_t)n * sizeof(float);
    auto liveRow = [&](size_t q) { return out.ce.data() + live[q] * n; };

    if (trace)
        trace->fixedPointAt = 0;
    out.iterations = 0;
    for (int iter = 0; iter < opts.maxIterations; ++iter) {
        ++out.iterations;
        const size_t entry_live = live.size();
        for (size_t q = 0; q < entry_live; ++q)
            std::memcpy(&entry[q * (size_t)n], liveRow(q), row_bytes);

        // Step 1: normalize columns, choose Omega_P, quantize Ce.
        normalizeColumns(out.ce, live, out.basis, col_norms);
        out.alphabet =
            quant::choosePow2Alphabet(out.ce, live, opts.coefBits);
        const double delta =
            quant::projectPow2InPlace(out.ce, live, out.alphabet) /
            (double)(m * n);

        // Step 2: fit B to the quantized Ce. The trace records this
        // state — quantized coefficients with a fitted basis — which
        // is the solution quality Fig. 9 plots.
        als.fitBasis(out.ce.data(), live, out.basis.data());
        record();

        // ... then refit Ce freely for the next round; the pruned
        // rows come back +0.
        als.fitCoefficients(out.basis.data(), live, out.ce.data());

        // Step 3: vector-wise sparsification over all m rows, the
        // pruned ones counting as zeroed (monotone: once a row is
        // pruned it stays pruned, mirroring the hard-threshold
        // practice in the paper).
        sparsifyRows(out.ce, live, opts.vectorThreshold,
                     opts.minVectorSparsity, n, scratch);

        if (delta < opts.tol)
            break;

        // Exact fixed point: the iteration reproduced its input state
        // bit for bit, so every later one would too, with the same
        // delta and the same trace entry. Stop, but report what the
        // full loop reports: maxIterations, and the last trace entry
        // once per skipped iteration.
        bool same = live.size() == entry_live;
        for (size_t q = 0; same && q < entry_live; ++q)
            same = !std::memcmp(&entry[q * (size_t)n], liveRow(q),
                                row_bytes);
        if (same) {
            out.iterations = opts.maxIterations;
            if (trace) {
                trace->fixedPointAt = iter + 1;
                const size_t skipped = (size_t)(opts.maxIterations - iter - 1);
                for (std::vector<double> *series :
                     {&trace->reconError, &trace->vectorSparsity,
                      &trace->basisDrift, &trace->liveRows}) {
                    const double last = series->back();
                    series->insert(series->end(), skipped, last);
                }
            }
            break;
        }
    }

    // Optional support-restricted refinement before concluding.
    if (opts.refineOnSupport) {
        Tensor mask({m, n});
        for (int64_t i : live)
            for (int64_t j = 0; j < n; ++j)
                mask.at(i, j) = 1.0f;
        out.ce = linalg::fitCoefficientsMasked(w, out.basis, mask,
                                               opts.ridge);
    }

    // Conclusion: re-quantize Ce and re-fit B on the final support.
    normalizeColumns(out.ce, live, out.basis, col_norms);
    out.alphabet = quant::choosePow2Alphabet(out.ce, live, opts.coefBits);
    quant::projectPow2InPlace(out.ce, live, out.alphabet);
    als.fitBasis(out.ce.data(), live, out.basis.data());
    record();

    out.reconRelError = linalg::frobDiff(w, out.reconstruct()) / w_norm;
    return out;
}

} // namespace core
} // namespace se
