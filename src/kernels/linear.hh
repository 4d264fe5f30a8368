/**
 * @file
 * Linear (fully-connected) lowering onto the blocked GEMM, nn::Linear's
 * only execution path in training and serving alike. Both directions
 * are bit-identical to the legacy loops (kept as the oracle in
 * tests/reference): forward carries the same per-output double
 * accumulator over ascending input features, backward continues the
 * same ascending-batch / ascending-output float chains.
 */

#ifndef SE_KERNELS_LINEAR_HH
#define SE_KERNELS_LINEAR_HH

#include "kernels/scratch.hh"
#include "tensor/tensor.hh"

namespace se {
namespace kernels {

/**
 * y = x W^T + bias for x (N, in), w (out, in); bias may be null.
 * Scratch holds the W transpose used on batched inputs.
 */
Tensor linearForwardGemm(const Tensor &x, const Tensor &w,
                         const Tensor *bias, ScratchArena &scratch);

/**
 * Backward against the cached input: accumulates into gradW (and
 * gradB when non-null), writes the input gradient into gx (must come
 * in zero-filled, shaped like x). Scratch holds the gy transpose.
 */
void linearBackwardGemm(const Tensor &x, const Tensor &w,
                        const Tensor &gy, ScratchArena &scratch,
                        Tensor &gradW, Tensor *gradB, Tensor &gx);

} // namespace kernels
} // namespace se

#endif // SE_KERNELS_LINEAR_HH
