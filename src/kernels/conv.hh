/**
 * @file
 * Convolution forward lowering onto the offset-addressed double-chain
 * GEMM, supporting stride, zero padding, dilation and groups (so
 * depth-wise convolutions too).
 *
 * The batch is folded into the GEMM columns. A chunk holds as many
 * samples as it takes to reach kConvFoldCols columns (1 sample on
 * 8x8 maps, 4 on 4x4, 16 on 2x2), is padded once, and runs one
 * gemmDChain per group. The panel's offsets address the operands in
 * place: B row (channel, kr, ks) is the tap's offset into the padded
 * chunk, and C column (sample, output position) is that output's
 * offset into NCHW y, so every result is stored where it belongs and
 * nothing is scattered afterwards. A stride-1 conv with an even
 * output width reads B straight from the padded input, since each
 * column pair is then two adjacent taps of one input row. Any other
 * shape (stride 2, an odd output width) lowers the chunk onto a dense
 * column matrix with im2col first. The offsets, the padded input and
 * the column matrix live in the calling thread's scratch arena.
 *
 * The forward is bit-identical to the legacy 7-deep NCHW loop (kept
 * as the oracle in tests/reference): B enumerates the patch in the
 * loop's (channel, kr, ks) order, padding taps contribute exact
 * zeros, and the GEMM carries the same per-output double accumulator
 * (bias first, round once on store). Folding only changes which
 * columns share a GEMM call. The one place a padding zero shows is
 * the sign of a zero result under a -0 bias, which the lowering
 * restores to the reference's. The backward stays on nn::Conv2d's
 * legacy loop: a col2im scatter-add would re-associate its
 * interleaved gx sums, which the golden-pinned retrain benches
 * cannot absorb.
 */

#ifndef SE_KERNELS_CONV_HH
#define SE_KERNELS_CONV_HH

#include "kernels/dispatch.hh"
#include "tensor/tensor.hh"

namespace se {
namespace kernels {

/**
 * Columns the conv forward folds samples into one GEMM to reach:
 * eight tiles of the column panel.
 */
constexpr int64_t kConvFoldCols = 8 * kPanelCols;

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
 * bias (M) may be null. Panics unless kernel, stride, dilation and
 * groups are >= 1 and pad >= 0.
 */
Tensor conv2dForwardGemm(const Tensor &x, const Tensor &w,
                         const Tensor *bias, const ConvSpec &spec);

} // namespace kernels
} // namespace se

#endif // SE_KERNELS_CONV_HH
