/**
 * @file
 * im2col: lower a convolution's sliding-window geometry onto a dense
 * matrix so the conv forward becomes a single GEMM.
 *
 * Layout contract (shared with the conv lowering and the naive loop's
 * accumulation order): the column matrix is (c*r*s) x (oh*ow) with row
 * index (ci*r + kr)*s + ks — i.e. rows run over the patch in the same
 * (channel, kernel-row, kernel-col) order the weight tensor stores and
 * the legacy loop accumulates, which is what keeps the GEMM path
 * bit-identical. Out-of-image taps are written as exact 0.0f.
 */

#ifndef SE_KERNELS_IM2COL_HH
#define SE_KERNELS_IM2COL_HH

#include <cstdint>

namespace se {
namespace kernels {

/**
 * Expand one (c, h, w) channel block into col (c*r*s x oh*ow).
 * x points at the first channel of the block (a group slice of one
 * batch item); col must hold c*r*s*oh*ow floats.
 */
void im2col(const float *x, int64_t c, int64_t h, int64_t w, int64_t r,
            int64_t s, int64_t stride, int64_t pad, int64_t dil,
            int64_t oh, int64_t ow, float *col);

} // namespace kernels
} // namespace se

#endif // SE_KERNELS_IM2COL_HH
