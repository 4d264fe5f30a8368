#include "kernels/ce_gemm.hh"

#include "kernels/dispatch.hh"

namespace se {
namespace kernels {

namespace {

/**
 * The 16-entry nibble -> float table the fused kernels index with the
 * raw nibble. Built from the pow2CodeValue rule the dense path
 * stores, so a lookup and a decode are the same bits. The two zero
 * encodings (0x0, and the 0x8 sign-on-zero pattern packCe never
 * emits) both map to +0.0f, which the kernels then skip exactly like
 * a decoded zero.
 */
void
buildDecodeLut(const quant::Pow2Alphabet &alpha, float *lut)
{
    const int exp_min = alpha.expMin();
    lut[0] = 0.0f;
    lut[8] = 0.0f;
    for (int code = 1; code <= 7; ++code) {
        lut[code] = quant::pow2CodeValue(exp_min, code, false);
        lut[8 | code] = quant::pow2CodeValue(exp_min, code, true);
    }
}

} // namespace

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
    buildDecodeLut(alpha, lut);
    const KernelOps &o = ops();
    forEachColumnPanel(n, m * r * n, [&](int64_t j0, int64_t j1) {
        o.gemmCePanel(row_mask, nibbles, m, r, basis, n, lut, out, j0,
                      j1);
    });
}

} // namespace kernels
} // namespace se
