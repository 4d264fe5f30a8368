#include "kernels/ce_gemm.hh"

#include <algorithm>

#include "kernels/dispatch.hh"

namespace se {
namespace kernels {

void
buildCeDecodeLut(const quant::Pow2Alphabet &alpha, float *lut)
{
    const int exp_min = alpha.expMin();
    lut[0] = 0.0f;
    lut[8] = 0.0f;
    for (int code = 1; code <= 7; ++code) {
        lut[code] = quant::pow2CodeValue(exp_min, code, false);
        lut[8 | code] = quant::pow2CodeValue(exp_min, code, true);
    }
}

void
gemmCeB(const uint8_t *row_mask, const uint8_t *nibbles, int64_t m,
        int64_t r, const float *basis, int64_t n,
        const quant::Pow2Alphabet &alpha, float *out,
        ScratchArena &arena)
{
    (void)arena;  // the fused path stages nothing
    if (m <= 0 || n <= 0)
        return;
    float lut[16];
    buildCeDecodeLut(alpha, lut);
    const KernelOps &o = ops();
    if (n <= kCeSmallN) {
        o.gemmCeSmallN(row_mask, nibbles, m, r, basis, n, lut, out,
                       nullptr);
        return;
    }
    forEachColumnPanel(n, m * r * n, [&](int64_t j0, int64_t j1) {
        o.gemmCePanel(row_mask, nibbles, m, r, basis, n, lut, out, j0,
                      j1);
    });
}

void
gemmCeBLayer(const CeBPiece *pieces, size_t count, float *weight)
{
    const KernelOps &o = ops();
    float last[kCeSmallN];  // the padded last row of a small-n piece
    for (size_t k = 0; k < count; ++k) {
        const CeBPiece &pc = pieces[k];
        if (pc.rows <= 0 || pc.cols <= 0)
            continue;
        float *out = weight + pc.offset;
        const bool padded = pc.lastRowCols < pc.cols;
        if (pc.cols <= kCeSmallN) {
            o.gemmCeSmallN(pc.rowMask, pc.nibbles, pc.rows, pc.rank,
                           pc.basis, pc.cols, pc.lut, out,
                           padded ? last : nullptr);
            if (padded)
                std::copy(last, last + pc.lastRowCols,
                          out + (pc.rows - 1) * pc.cols);
            continue;
        }
        // A wide piece takes the column-panel body. Padded, its
        // columns before lastRowCols run over every row and the rest
        // over all rows but the last (a row prefix keeps its codes).
        o.gemmCePanel(pc.rowMask, pc.nibbles, pc.rows, pc.rank, pc.basis,
                      pc.cols, pc.lut, out, 0, pc.lastRowCols);
        if (padded)
            o.gemmCePanel(pc.rowMask, pc.nibbles, pc.rows - 1, pc.rank,
                          pc.basis, pc.cols, pc.lut, out,
                          pc.lastRowCols, pc.cols);
    }
}

} // namespace kernels
} // namespace se
