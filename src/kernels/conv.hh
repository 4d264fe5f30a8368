/**
 * @file
 * Convolution forward lowering: conv2d as im2col + blocked GEMM,
 * supporting stride, zero padding, dilation and groups (so depth-wise
 * convolutions too).
 *
 * The forward is bit-identical to the legacy 7-deep NCHW loop (kept
 * as the oracle in tests/reference): the column matrix enumerates
 * the patch in the loop's (channel, kr, ks) order, padding taps
 * contribute exact zeros, and the GEMM carries the same per-output
 * double accumulator (bias first, round once on store). The backward
 * stays on nn::Conv2d's legacy loop: a col2im scatter-add would
 * re-associate its interleaved gx sums, which the golden-pinned
 * retrain benches cannot absorb.
 */

#ifndef SE_KERNELS_CONV_HH
#define SE_KERNELS_CONV_HH

#include "kernels/scratch.hh"
#include "tensor/tensor.hh"

namespace se {
namespace kernels {

/** Static geometry of a conv layer (square kernels, NCHW). */
struct ConvSpec
{
    int64_t inCh = 0;
    int64_t outCh = 0;
    int64_t kern = 1;
    int64_t stride = 1;
    int64_t pad = 0;
    int64_t groups = 1;
    int64_t dil = 1;
};

/**
 * Output extent (in + 2 pad - kext) / stride + 1 of one spatial dim
 * under a window spanning kext inputs (dilation included). Panics,
 * naming the shape, when the padded input is smaller than the window:
 * the division would truncate toward zero and return a bogus size.
 */
int64_t windowOutExtent(int64_t in, int64_t pad, int64_t kext,
                        int64_t stride);

/**
 * y = conv(x, w) + bias for x (N, C, H, W) and w (M, C/g, R, S);
 * bias (M) may be null. Scratch holds the reused column buffer.
 */
Tensor conv2dForwardGemm(const Tensor &x, const Tensor &w,
                         const Tensor *bias, const ConvSpec &spec,
                         ScratchArena &scratch);

} // namespace kernels
} // namespace se

#endif // SE_KERNELS_CONV_HH
