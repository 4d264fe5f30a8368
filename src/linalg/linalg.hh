/**
 * @file
 * Dense linear algebra kernels used by the SmartExchange decomposition:
 * matrix multiplication, norms, Cholesky-based SPD solves, and the two
 * alternating least-squares factor updates for W ~= Ce * B.
 *
 * All matrices are row-major, as 2-D Tensors or, on the ALS hot path
 * (AlsSolver, choleskySolveInPlace), raw buffers the caller sizes
 * once. Problem sizes are tiny (B is n x n with n = 3 for 3x3 convs
 * and 4 for fc groups; Ce has at most a few thousand rows), so the
 * ALS refits sweep rows with register-resident accumulators instead
 * of going through the blocked GEMM kernels.
 */

#ifndef SE_LINALG_LINALG_HH
#define SE_LINALG_LINALG_HH

#include <vector>

#include "tensor/tensor.hh"

namespace se {
namespace linalg {

/** Transpose of a 2-D tensor. */
Tensor transpose(const Tensor &a);

/** Frobenius norm of any tensor. */
double frobNorm(const Tensor &a);

/** Frobenius norm of (a - b); shapes must match. */
double frobDiff(const Tensor &a, const Tensor &b);

/**
 * Solve the SPD system A * X = B via Cholesky factorization.
 *
 * A is n x n symmetric positive definite (a small ridge may be added by
 * the caller), B is n x m. Returns X (n x m).
 */
Tensor choleskySolve(Tensor a, Tensor b);

/**
 * choleskySolve on raw row-major storage, in place: a (n x n) is
 * overwritten by its lower Cholesky factor and x (n x count, one
 * right-hand side per column) by the solution X.
 */
void choleskySolveInPlace(float *a, int64_t n, float *x, int64_t count);

/**
 * The two alternating least-squares factor updates for W ~= Ce * B,
 * with W (m x n) fixed and Ce m x r, B r x n, restricted to a set of
 * live rows: `rows` lists them ascending, distinct and in [0, m).
 * The other rows play no part — as if their Ce rows were zero — so
 * the decomposition loop of Algorithm 1 never visits the rows it has
 * pruned. The work buffers are sized once, so the loop allocates
 * nothing per iteration. W must outlive the solver.
 *
 * Both refits run in this file, not through the kernels' dispatched
 * GEMMs: fitBasis accumulates Ce^T Ce and Ce^T W in one sweep over
 * the live rows, fitCoefficients builds B B^T and B W^T for the live
 * rows only. Each entry keeps the float chain of the transposed-GEMM
 * formulation (ascending inner index, a round after every add, zero
 * left-operand entries skipped), so both equal transpose /
 * kernels::gemm / choleskySolve bit for bit under every kernel ISA. For square
 * problems up to 4 x 4 (every conv and fc piece) the accumulators are
 * register-resident.
 */
class AlsSolver
{
  public:
    AlsSolver(const Tensor &w, int64_t r, double ridge = 1e-8);

    /**
     * basis = argmin_B || W_L - Ce_L * B ||_F over the live rows L:
     * solves the normal equations (Ce_L^T Ce_L + ridge I) B =
     * Ce_L^T W_L. Ce rows outside L are not read. The ridge keeps the
     * solve well-posed when Ce has zero columns (fully pruned
     * coefficients), which the SmartExchange sparsifier produces
     * routinely.
     */
    void fitBasis(const float *ce, const std::vector<int64_t> &rows,
                  float *basis);

    /**
     * ce = argmin_Ce || W - Ce * B ||_F with the rows outside L held
     * at +0: the live rows solve the transposed problem
     * (B B^T + ridge I) Ce_L^T = B W_L^T, every other row of ce is
     * set to +0.
     */
    void fitCoefficients(const float *basis,
                         const std::vector<int64_t> &rows, float *ce);

  private:
    const float *w_;
    int64_t m_, n_, r_;
    double ridge_;
    std::vector<float> gram_;   ///< r x r normal matrix
    /** r x |L|: B W_L^T, solved into Ce_L^T, in fitCoefficients. */
    std::vector<float> staged_;
};

/**
 * Least-squares refit of Ce restricted to its current support: zero
 * entries stay zero, only non-zeros are re-estimated (row by row).
 * Used after sparsification so pruning does not destroy the fit.
 */
Tensor fitCoefficientsMasked(const Tensor &w, const Tensor &b,
                             const Tensor &mask, double ridge = 1e-8);

} // namespace linalg
} // namespace se

#endif // SE_LINALG_LINALG_HH
