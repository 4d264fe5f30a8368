/**
 * @file
 * Linear (fully-connected) lowering onto the blocked GEMM, nn::Linear's
 * only execution path in training and serving alike. Both directions
 * are bit-identical to the legacy loops (kept as the oracle in
 * tests/reference): forward carries the same per-output double
 * accumulator over ascending input features, backward continues the
 * same ascending-batch / ascending-output float chains. The W and gy
 * transposes are staged in the calling thread's scratch arena
 * (kernels/scratch.hh); a layer owns no scratch of its own.
 */

#ifndef SE_KERNELS_LINEAR_HH
#define SE_KERNELS_LINEAR_HH

#include "tensor/tensor.hh"

namespace se {
namespace kernels {

/**
 * y = x W^T + bias for x (N, in), w (out, in); bias may be null.
 * Batched inputs stage W^T in the calling thread's scratch arena.
 */
Tensor linearForwardGemm(const Tensor &x, const Tensor &w,
                         const Tensor *bias);

/**
 * Backward against the cached input: accumulates into gradW (and
 * gradB when non-null), writes the input gradient into gx (must come
 * in zero-filled, shaped like x). The gy transpose is staged in the
 * calling thread's scratch arena.
 */
void linearBackwardGemm(const Tensor &x, const Tensor &w,
                        const Tensor &gy, Tensor &gradW, Tensor *gradB,
                        Tensor &gx);

} // namespace kernels
} // namespace se

#endif // SE_KERNELS_LINEAR_HH
