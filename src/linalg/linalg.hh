/**
 * @file
 * Dense linear algebra kernels used by the SmartExchange decomposition:
 * matrix multiplication, norms, Cholesky-based SPD solves, and the two
 * alternating least-squares factor updates for W ~= Ce * B.
 *
 * All matrices are row-major, as 2-D Tensors or, on the ALS hot path
 * (AlsSolver, choleskySolveInPlace), raw buffers the caller sizes
 * once. Problem sizes are tiny (B is SxS with S in {1,3,5,7}; Ce has
 * at most a few thousand rows), so the products stay on the kernels'
 * float chains and no blocking beyond theirs is attempted.
 */

#ifndef SE_LINALG_LINALG_HH
#define SE_LINALG_LINALG_HH

#include <vector>

#include "tensor/tensor.hh"

namespace se {
namespace linalg {

/** C = A * B for 2-D tensors (m x k) * (k x n). */
Tensor matmul(const Tensor &a, const Tensor &b);

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
 * with W (m x n) fixed and Ce m x r, B r x n. The work buffers are
 * sized once, so the ALS loop of Algorithm 1 allocates nothing per
 * iteration. W must outlive the solver.
 */
class AlsSolver
{
  public:
    AlsSolver(const Tensor &w, int64_t r, double ridge = 1e-8);

    /**
     * basis = argmin_B || W - Ce * B ||_F: solves the normal
     * equations (Ce^T Ce + ridge I) B = Ce^T W. The ridge keeps the
     * solve well-posed when Ce has zero columns (fully pruned
     * coefficients), which the SmartExchange sparsifier produces
     * routinely.
     */
    void fitBasis(const float *ce, float *basis);

    /**
     * ce = argmin_Ce || W - Ce * B ||_F, i.e. the transposed problem
     * (B B^T + ridge I) Ce^T = B W^T.
     */
    void fitCoefficients(const float *basis, float *ce);

  private:
    const float *w_;
    int64_t m_, n_, r_;
    double ridge_;
    std::vector<float> gram_;   ///< r x r normal matrix
    /** r x m: Ce^T in fitBasis; B W^T, solved into Ce^T, in
     *  fitCoefficients. */
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
