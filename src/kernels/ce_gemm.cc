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
        o.gemmCeSmallN(row_mask, nibbles, m, r, basis, n, n, lut, out,
                       nullptr);
        return;
    }
    forEachColumnPanel(n, m * r * n, [&](int64_t j0, int64_t j1) {
        for (int64_t j = j0; j < j1; j += kCeSmallN)
            o.gemmCeSmallN(row_mask, nibbles, m, r, basis + j,
                           std::min(kCeSmallN, j1 - j), n, lut, out + j,
                           nullptr);
    });
}

void
gemmCeBLayer(const CeBPiece *pieces, size_t count, float *weight)
{
    const KernelOps &o = ops();
    float last[kCeSmallN];  // one strip of a padded piece's last row
    for (size_t k = 0; k < count; ++k) {
        const CeBPiece &pc = pieces[k];
        if (pc.rows <= 0 || pc.cols <= 0)
            continue;
        float *out = weight + pc.offset;
        float *tail = out + (pc.rows - 1) * pc.cols;
        const bool padded = pc.lastRowCols < pc.cols;
        for (int64_t j = 0; j < pc.cols; j += kCeSmallN) {
            const int64_t w = std::min(kCeSmallN, pc.cols - j);
            o.gemmCeSmallN(pc.rowMask, pc.nibbles, pc.rows, pc.rank,
                           pc.basis + j, w, pc.cols, pc.lut, out + j,
                           padded ? last : nullptr);
            if (padded)
                std::copy(last,
                          last + std::clamp<int64_t>(
                                     pc.lastRowCols - j, 0, w),
                          tail + j);
        }
    }
}

} // namespace kernels
} // namespace se
