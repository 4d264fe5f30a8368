/**
 * @file
 * im2col: lower a convolution's sliding-window geometry onto a dense
 * column matrix so the conv forward of a whole chunk of samples
 * becomes one GEMM. Only the shapes the double-chain panel cannot
 * read in place take it: stride > 1, or an odd output width, where a
 * column pair is not two adjacent input floats (see conv.hh).
 *
 * The input is padded once per chunk (padSamples), which every conv
 * shape needs, so every tap of every window lies inside the buffer
 * and each column row is a plain strided copy with no bounds logic.
 * Padding taps read exact +0.0f.
 *
 * Layout contract (shared with the conv lowering and the reference
 * loop's accumulation order): for ns samples the column matrix is
 * (c*k*k) x (ns*oh*ow). Row (ci*k + kr)*k + ks runs over the patch
 * in the (channel, kernel-row, kernel-col) order the weight tensor
 * stores and the reference loop accumulates, which keeps the GEMM
 * bit-identical. Columns run over (sample, output row, output col).
 */

#ifndef SE_KERNELS_IM2COL_HH
#define SE_KERNELS_IM2COL_HH

#include <cstdint>

namespace se {
namespace kernels {

/** Square-window geometry over an already padded input. */
struct PaddedWindow
{
    int64_t hp = 0, wp = 0;  ///< padded input extents
    int64_t kern = 1, stride = 1, dil = 1;
    int64_t oh = 0, ow = 0;  ///< output extents
};

/**
 * Copy ns contiguous (c, h, w) samples from x into xp, laid out as
 * (ns, c, h + 2 pad, w + 2 pad) with a border of +0.0f.
 */
void padSamples(const float *x, int64_t ns, int64_t c, int64_t h,
                int64_t w, int64_t pad, float *xp);

/**
 * Expand c channels of ns padded samples into col. xp points at the
 * block's first channel in sample 0 (a group slice), and sample s
 * starts sample_stride floats after sample s - 1. col must hold
 * c*k*k * ns*oh*ow floats.
 */
void im2col(const float *xp, int64_t c, int64_t ns,
            int64_t sample_stride, const PaddedWindow &win, float *col);

} // namespace kernels
} // namespace se

#endif // SE_KERNELS_IM2COL_HH
