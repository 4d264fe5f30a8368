/**
 * @file
 * Cache-blocked, register-tiled, ThreadPool-parallel GEMM kernels.
 *
 * Every kernel preserves the legacy loops' per-element rounding
 * sequence exactly: each output element is accumulated over the inner
 * dimension in ascending order by exactly one worker, float-chain
 * kernels round after every add just like the scalar loops they
 * replace, and double-chain kernels round once on store just like the
 * forward passes' double accumulators. Blocking therefore changes
 * which elements are computed when — never what any element's value
 * is — so the fast paths are bit-identical to the naive ones and
 * thread-count invariant (goldens do not move).
 *
 * Dispatch: the float-chain kernel sgemm and the double-chain kernel
 * gemmDChain run their column panels through the ISA-selected
 * KernelOps table (dispatch.hh), so both chains follow SE_KERNEL_ISA
 * and every variant is bit-identical. gemmABtColBiasD stays a single
 * scalar panel.
 *
 * Parallelism: the output columns are split into register-tile-aligned
 * panels fanned over kernels::pool() once a matrix is big enough to
 * amortize the task plumbing. Small systems (the ALS solves, Ce*B
 * slices) stay inline.
 */

#ifndef SE_KERNELS_GEMM_HH
#define SE_KERNELS_GEMM_HH

#include "kernels/dispatch.hh"
#include "tensor/tensor.hh"

namespace se {
namespace kernels {

/**
 * C (m x n) = [C +] A (m x k) * B (k x n), float accumulator chain in
 * ascending-k order with zero entries of A skipped — the rounding
 * sequence of tests/reference's matmul. accumulate=false overwrites C.
 */
void sgemm(const float *a, const float *b, float *c, int64_t m,
           int64_t k, int64_t n, bool accumulate);

/**
 * C (m x n) = (float)(bias + sum_p A[i][p] * B[p][j]) with A (m x k)
 * row-major, B, C and the bias described by `op`, and a double
 * accumulator per element in ascending-p order — the conv and Linear
 * forward rounding sequence (bias first, round once on store).
 */
void gemmDChain(const float *a, const DChainOperands &op, int64_t m,
                int64_t k, int64_t n);

/** Offsets denseOperands(k, n) writes: k + (n + 1) / 2 + n. */
constexpr int64_t
denseOffsetCount(int64_t k, int64_t n)
{
    return k + (n + 1) / 2 + n;
}

/**
 * Operands for row-major B (k x n) and C (m x n), with their offsets
 * written to `offsets` (denseOffsetCount(k, n) entries, which must
 * outlive the returned value). Both biases start out null.
 */
DChainOperands denseOperands(const float *b, float *c, int64_t k,
                             int64_t n, int64_t *offsets);

/**
 * C (m x n) = (float)(colBias[j] + sum_p A[i][p] * B[j][p]) with B
 * given (n x k) row-major and a double accumulator per element — the
 * Linear forward y = x W^T + b rounding sequence. col_bias may be
 * null. Dot-product form: no transpose, but the per-p loads scatter
 * across B rows, so prefer gemmDChain over B^T on batched inputs.
 */
void gemmABtColBiasD(const float *a, const float *b,
                     const float *col_bias, float *c, int64_t m,
                     int64_t k, int64_t n);

/** dst (cols x rows) = src^T for a row-major (rows x cols) block. */
void transposeF(const float *src, int64_t rows, int64_t cols,
                float *dst);

/**
 * C = A * B for 2-D tensors (m x k) * (k x n), inner dims checked, on
 * the blocked kernel; bit-identical to the legacy triple loop
 * (tests/reference's matmul).
 */
Tensor gemm(const Tensor &a, const Tensor &b);

} // namespace kernels
} // namespace se

#endif // SE_KERNELS_GEMM_HH
