/**
 * @file
 * Reference loops the library's lowerings are diffed against.
 *
 * Each function is the textbook scalar loop a production kernel
 * replaced, kept verbatim in its accumulation order so "bit-identical
 * to the reference" is a meaningful wall for the tests and the
 * baseline rows of bench_kernels / bench_runtime. They operate on raw
 * tensors, not nn layers, and are linked by the tests and those two
 * benches only — never by the `se` library.
 */

#ifndef SE_TESTS_REFERENCE_REFERENCE_HH
#define SE_TESTS_REFERENCE_REFERENCE_HH

#include <cstdint>

#include "kernels/conv.hh"
#include "kernels/scratch.hh"
#include "quant/quant.hh"
#include "tensor/tensor.hh"

namespace se {
namespace reference {

/**
 * The legacy 7-deep NCHW conv forward: one double accumulator per
 * output (bias first), taps in (channel, kr, ks) order, padding taps
 * skipped. bias may be null. Panics through kernels::windowOutExtent
 * when the padded input is smaller than the window.
 */
Tensor conv2dForward(const Tensor &x, const Tensor &w,
                     const Tensor *bias, const kernels::ConvSpec &spec);

/** y = x W^T + bias, one double accumulator per output. */
Tensor linearForward(const Tensor &x, const Tensor &w,
                     const Tensor *bias);

/**
 * Linear backward: accumulates into gradW (and gradB when non-null)
 * in ascending-batch / ascending-output float chains, skipping zero
 * output gradients, and returns the input gradient.
 */
Tensor linearBackward(const Tensor &x, const Tensor &w,
                      const Tensor &gy, Tensor &gradW, Tensor *gradB);

/** C = A * B: ascending-k float chain per element, zero A skipped. */
Tensor matmul(const Tensor &a, const Tensor &b);

/**
 * linalg::fitCoefficientsMasked with every masked Gram and
 * right-hand-side dot recomputed per row in double.
 */
Tensor fitCoefficientsMasked(const Tensor &w, const Tensor &b,
                             const Tensor &mask, double ridge = 1e-8);

/**
 * kernels::gemmCeB staged: decode 128-row panels of packed Ce codes
 * into the arena, then feed each panel to kernels::sgemm.
 */
void gemmCeBPanelDecode(const uint8_t *row_mask, const uint8_t *nibbles,
                        int64_t m, int64_t r, const float *basis,
                        int64_t n, const quant::Pow2Alphabet &alpha,
                        float *out, kernels::ScratchArena &arena);

} // namespace reference
} // namespace se

#endif // SE_TESTS_REFERENCE_REFERENCE_HH
