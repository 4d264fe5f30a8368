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
 * Every width runs through one body, KernelOps::gemmCeSmallN: an
 * 8-column strip that decodes each row's r codes once and accumulates
 * the strip's columns in one register tile (one YMM on AVX2, acc[8]
 * on scalar). Real pieces are narrow — every (Cg*R) x S conv slice has
 * n = S (3 for a 3x3 conv) and every FC slice n = fcGroupSize (4) — so
 * each is one strip and one call. A wider output runs as strips of at
 * most kCeSmallN columns, fanned over forEachColumnPanel by gemmCeB.
 *
 * gemmCeBLayer is the serve rebuild's entry: one call per layer writes
 * every piece straight into the layer's weight tensor. A piece's rows
 * are contiguous there — a conv piece at filter*Cg*R*S + rowOffset*S,
 * an FC / 1x1 piece at filter*C + rowOffset*s — so no per-piece output
 * tensor or scatter exists. The one exception is the zero-padded last
 * row of an FC piece when s does not divide C: only its leading
 * columns belong to the weight, so that row alone is staged, one strip
 * at a time, and its valid prefix copied in. Decode LUTs are built
 * once by the caller (buildCeDecodeLut) and reused across calls.
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

#include <cstddef>
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
 * the arena is unused. It stays in the signature because perfbench's
 * per-piece rebuild probe (perfbench/src/probes.cc), which changes
 * only together with the benchmark, calls this exact form.
 */
void gemmCeB(const uint8_t *row_mask, const uint8_t *nibbles,
             int64_t m, int64_t r, const float *basis, int64_t n,
             const quant::Pow2Alphabet &alpha, float *out,
             ScratchArena &arena);

/**
 * The 16-entry nibble -> float table the fused kernels index with the
 * raw nibble, built from the pow2CodeValue rule the dense path
 * stores. Both zero encodings (0x0, and the 0x8 sign-on-zero pattern
 * packCe never emits) map to +0.0f, which the kernels skip.
 */
void buildCeDecodeLut(const quant::Pow2Alphabet &alpha, float *lut);

/** One piece of a per-layer rebuild (see gemmCeBLayer). */
struct CeBPiece
{
    const uint8_t *rowMask = nullptr;  ///< core::PackedCe::rowMask
    const uint8_t *nibbles = nullptr;  ///< core::PackedCe::nibbles
    int64_t rows = 0;                  ///< m
    int64_t rank = 0;                  ///< r
    const float *basis = nullptr;      ///< rank x cols
    int64_t cols = 0;                  ///< n (row stride in the weight)
    const float *lut = nullptr;        ///< buildCeDecodeLut table
    int64_t offset = 0;  ///< first output element, from the layer base
    /** Columns of row rows - 1 that belong to the weight (<= cols). */
    int64_t lastRowCols = 0;
};

/**
 * Rebuild every piece of one layer into `weight`: piece k's rows
 * land at weight + pieces[k].offset with stride cols, its last row
 * cut to lastRowCols. Bytes equal per-piece gemmCeB calls scattered
 * into place.
 */
void gemmCeBLayer(const CeBPiece *pieces, size_t count, float *weight);

} // namespace kernels
} // namespace se

#endif // SE_KERNELS_CE_GEMM_HH
