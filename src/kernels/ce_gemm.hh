/**
 * @file
 * Ce-code GEMM: rebuild W = Ce * B straight from the packed 4-bit
 * coefficient codes, without ever materializing the decoded Ce matrix.
 *
 * This is the software mirror of the accelerator's rebuild engine
 * datapath: storage holds {row mask, packed nibbles, alphabet} — the
 * model-file v3 wire form — and the fused kernel decodes each code
 * through a 16-entry alphabet LUT as part of the A-side load inside
 * the ISA-dispatched micro-kernel, so not even a per-panel float
 * staging buffer exists (the accelerator's no-dense-storage mode).
 *
 * Bit-identity contract: decoding a nibble yields exactly the float
 * +-2^p the dense path stores (powers of two are exact), the LUT is
 * built from the same quant::pow2CodeValue rule, and each output
 * element still accumulates over the inner dimension in ascending
 * order with the zero-code skip. gemmCeB is therefore bit-identical
 * to sgemm(decode(Ce), B) — and hence to SeMatrix::reconstruct() —
 * at every ISA level. The staged decode-then-sgemm baseline it is
 * gated against lives in tests/reference.
 *
 * Model-file v4 (adaptive per-column bit widths) feeds this kernel
 * through a transcode shim rather than a second decode path: the v4
 * loader decodes a piece to SeMatrix once, and serve's CeDirect bind
 * re-packs it with core::packCe into exactly this fixed 4-bit form.
 * Codes are codes — the widths are a wire-format concern — so the
 * kernel's LUT, and with it the bit-identity contract, is untouched.
 */

#ifndef SE_KERNELS_CE_GEMM_HH
#define SE_KERNELS_CE_GEMM_HH

#include <cstdint>

#include "kernels/scratch.hh"
#include "quant/quant.hh"

namespace se {
namespace kernels {

/**
 * out (m x n) = decode(Ce) (m x r) * basis (r x n), fused decode.
 *
 * `row_mask` is a LSB-first bitmap of non-zero Ce rows (ceil(m/8)
 * bytes); `nibbles` packs the non-zero rows' codes two per byte, low
 * nibble first (nibble = 0 for zero, else sign bit 0x8 | exponent
 * code 1..alpha.numLevels — the core::PackedCe layout). Rows absent
 * from the mask decode to zero. The fused path stages nothing, so
 * the arena is unused; it stays in the signature for existing
 * callers.
 */
void gemmCeB(const uint8_t *row_mask, const uint8_t *nibbles,
             int64_t m, int64_t r, const float *basis, int64_t n,
             const quant::Pow2Alphabet &alpha, float *out,
             ScratchArena &arena);

} // namespace kernels
} // namespace se

#endif // SE_KERNELS_CE_GEMM_HH
