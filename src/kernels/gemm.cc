#include "kernels/gemm.hh"

#include <algorithm>

#include "kernels/dispatch.hh"
#include "kernels/kernels.hh"

namespace se {
namespace kernels {

namespace {

/** Register-tile width of gemmABtColBiasDPanel. */
constexpr int64_t kNr = 8;

/** gemmABtColBiasD over the B-row range [j0, j1). */
void
gemmABtColBiasDPanel(const float *__restrict a,
                     const float *__restrict b, const float *col_bias,
                     float *__restrict c, int64_t m, int64_t k,
                     int64_t n, int64_t j0, int64_t j1)
{
    int64_t jt = j0;
    for (; jt + kNr <= j1; jt += kNr) {
        const float *br[kNr];
        for (int jj = 0; jj < kNr; ++jj)
            br[jj] = b + (jt + jj) * k;
        for (int64_t i = 0; i < m; ++i) {
            const float *ai = a + i * k;
            double acc[kNr];
            for (int jj = 0; jj < kNr; ++jj)
                acc[jj] = col_bias ? (double)col_bias[jt + jj] : 0.0;
            for (int64_t p = 0; p < k; ++p) {
                const double av = ai[p];
                for (int jj = 0; jj < kNr; ++jj)
                    acc[jj] += (double)br[jj][p] * av;
            }
            float *ci = c + i * n + jt;
            for (int jj = 0; jj < kNr; ++jj)
                ci[jj] = (float)acc[jj];
        }
    }
    for (; jt < j1; ++jt) {
        const float *bj = b + jt * k;
        for (int64_t i = 0; i < m; ++i) {
            const float *ai = a + i * k;
            double acc = col_bias ? (double)col_bias[jt] : 0.0;
            for (int64_t p = 0; p < k; ++p)
                acc += (double)bj[p] * (double)ai[p];
            c[i * n + jt] = (float)acc;
        }
    }
}

} // namespace

void
sgemm(const float *a, const float *b, float *c, int64_t m, int64_t k,
      int64_t n, bool accumulate)
{
    // The float-chain panels are ISA-dispatched (dispatch.hh); every
    // variant reproduces the scalar rounding sequence byte for byte.
    const KernelOps &o = ops();
    forEachColumnPanel(n, m * k * n, [&](int64_t j0, int64_t j1) {
        o.sgemmPanel(a, b, c, m, k, n, accumulate, j0, j1);
    });
}

void
gemmDChain(const float *a, const DChainOperands &op, int64_t m,
           int64_t k, int64_t n)
{
    const KernelOps &o = ops();
    forEachColumnPanel(n, m * k * n, [&](int64_t j0, int64_t j1) {
        o.gemmDChainPanel(a, op, m, k, j0, j1);
    });
}

DChainOperands
denseOperands(const float *b, float *c, int64_t k, int64_t n,
              int64_t *offsets)
{
    int64_t *b_row = offsets, *b_pair = b_row + k;
    int64_t *c_col = b_pair + (n + 1) / 2;
    for (int64_t p = 0; p < k; ++p)
        b_row[p] = p * n;
    for (int64_t j = 0; j < n; ++j) {
        b_pair[j / 2] = j & ~int64_t{1};
        c_col[j] = j;
    }
    return {b, b_row, b_pair, c, n, c_col};
}

void
gemmABtColBiasD(const float *a, const float *b, const float *col_bias,
                float *c, int64_t m, int64_t k, int64_t n)
{
    forEachColumnPanel(n, m * k * n, [&](int64_t j0, int64_t j1) {
        gemmABtColBiasDPanel(a, b, col_bias, c, m, k, n, j0, j1);
    });
}

void
transposeF(const float *src, int64_t rows, int64_t cols, float *dst)
{
    // Tile both dimensions so either stride stays cache-resident.
    constexpr int64_t kBlk = 32;
    for (int64_t i0 = 0; i0 < rows; i0 += kBlk)
        for (int64_t j0 = 0; j0 < cols; j0 += kBlk) {
            const int64_t i1 = std::min(rows, i0 + kBlk);
            const int64_t j1 = std::min(cols, j0 + kBlk);
            for (int64_t i = i0; i < i1; ++i)
                for (int64_t j = j0; j < j1; ++j)
                    dst[j * rows + i] = src[i * cols + j];
        }
}

Tensor
gemm(const Tensor &a, const Tensor &b)
{
    SE_ASSERT(a.ndim() == 2 && b.ndim() == 2, "gemm needs 2-D inputs");
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    SE_ASSERT(b.dim(0) == k, "gemm inner dim mismatch: ", k, " vs ",
              b.dim(0));
    Tensor c({m, n});
    sgemm(a.data(), b.data(), c.data(), m, k, n, /*accumulate=*/false);
    return c;
}

} // namespace kernels
} // namespace se
