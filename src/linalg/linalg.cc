#include "linalg/linalg.hh"

#include <algorithm>
#include <cmath>

#include "kernels/gemm.hh"

namespace se {
namespace linalg {

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    // The blocked kernel (which checks the shapes) keeps the textbook
    // rounding sequence — ascending-k float chain per element, zero
    // entries of A skipped — of the loop tests/reference diffs it
    // against.
    return kernels::gemm(a, b);
}

Tensor
transpose(const Tensor &a)
{
    SE_ASSERT(a.ndim() == 2, "transpose needs a 2-D input");
    Tensor t({a.dim(1), a.dim(0)});
    for (int64_t i = 0; i < a.dim(0); ++i)
        for (int64_t j = 0; j < a.dim(1); ++j)
            t.at(j, i) = a.at(i, j);
    return t;
}

double
frobNorm(const Tensor &a)
{
    double s = 0.0;
    for (int64_t i = 0; i < a.size(); ++i)
        s += (double)a[i] * a[i];
    return std::sqrt(s);
}

double
frobDiff(const Tensor &a, const Tensor &b)
{
    SE_ASSERT(a.size() == b.size(), "frobDiff size mismatch");
    double s = 0.0;
    for (int64_t i = 0; i < a.size(); ++i) {
        double d = (double)a[i] - b[i];
        s += d * d;
    }
    return std::sqrt(s);
}

Tensor
choleskySolve(Tensor a, Tensor b)
{
    SE_ASSERT(a.ndim() == 2 && a.dim(0) == a.dim(1),
              "choleskySolve needs a square A");
    const int64_t n = a.dim(0), m = b.dim(1);
    SE_ASSERT(b.dim(0) == n, "choleskySolve RHS row mismatch");
    choleskySolveInPlace(a.data(), n, b.data(), m);
    return b;
}

void
choleskySolveInPlace(float *a, int64_t n, float *x, int64_t count)
{
    // In-place lower-triangular Cholesky: A = L L^T.
    for (int64_t j = 0; j < n; ++j) {
        float *aj = a + j * n;
        double d = aj[j];
        for (int64_t k = 0; k < j; ++k)
            d -= (double)aj[k] * aj[k];
        SE_ASSERT(d > 0.0, "matrix not positive definite (d=", d, ")");
        const double ljj = std::sqrt(d);
        aj[j] = (float)ljj;
        for (int64_t i = j + 1; i < n; ++i) {
            float *ai = a + i * n;
            double s = ai[j];
            for (int64_t k = 0; k < j; ++k)
                s -= (double)ai[k] * aj[k];
            ai[j] = (float)(s / ljj);
        }
    }

    // Forward substitution L Y = B, then backward L^T X = Y. Each
    // right-hand side's element sequence is the textbook one; the
    // right-hand sides are swept innermost so their independent
    // divide chains overlap instead of running back to back.
    for (int64_t i = 0; i < n; ++i) {
        const float *ai = a + i * n;
        for (int64_t c = 0; c < count; ++c) {
            double s = x[i * count + c];
            for (int64_t k = 0; k < i; ++k)
                s -= (double)ai[k] * x[k * count + c];
            x[i * count + c] = (float)(s / ai[i]);
        }
    }
    for (int64_t i = n - 1; i >= 0; --i) {
        const float lii = a[i * n + i];
        for (int64_t c = 0; c < count; ++c) {
            double s = x[i * count + c];
            for (int64_t k = i + 1; k < n; ++k)
                s -= (double)a[k * n + i] * x[k * count + c];
            x[i * count + c] = (float)(s / lii);
        }
    }
}

namespace {

/**
 * Add a ridge scaled to the Gram matrix magnitude (r x r, row-major)
 * so rank-deficient systems (fully-pruned coefficient columns,
 * duplicated power-of-2 columns) stay numerically positive definite.
 */
void
addAdaptiveRidge(float *gram, int64_t r, double ridge)
{
    float max_diag = 0.0f;
    for (int64_t i = 0; i < r; ++i)
        max_diag = std::max(max_diag, gram[i * r + i]);
    // The 1e-5 * max_diag term dominates float32 round-off in the
    // Gram accumulation, keeping the factorization positive definite
    // even for rank-deficient (heavily pruned) coefficient matrices.
    const float eps = (float)(ridge + 1e-5 * (double)max_diag) + 1e-7f;
    for (int64_t i = 0; i < r; ++i)
        gram[i * r + i] += eps;
}

} // namespace

AlsSolver::AlsSolver(const Tensor &w, int64_t r, double ridge)
    : w_(w.data()), m_(w.dim(0)), n_(w.dim(1)), r_(r), ridge_(ridge),
      gram_((size_t)(r * r)), staged_((size_t)(r * w.dim(0)))
{
    SE_ASSERT(w.ndim() == 2 && r > 0, "AlsSolver needs a 2-D W, r > 0");
}

// Both updates keep linalg::matmul's float-chain rounding sequence
// (kernels::sgemm / sgemmABt: ascending inner index, zero entries of
// the left operand skipped), so they match the Tensor formulation
// (transpose, matmul, choleskySolve) bit for bit.

void
AlsSolver::fitBasis(const float *ce, float *basis)
{
    kernels::transposeF(ce, m_, r_, staged_.data());
    kernels::sgemm(staged_.data(), ce, gram_.data(), r_, m_, r_, false);
    addAdaptiveRidge(gram_.data(), r_, ridge_);
    kernels::sgemm(staged_.data(), w_, basis, r_, m_, n_, false);
    choleskySolveInPlace(gram_.data(), r_, basis, n_);
}

void
AlsSolver::fitCoefficients(const float *basis, float *ce)
{
    // B B^T and B W^T straight from row-major B and W (sgemmABt takes
    // the right operand transposed); the r x m solution is Ce^T.
    kernels::sgemmABt(basis, basis, gram_.data(), r_, n_, r_, false);
    addAdaptiveRidge(gram_.data(), r_, ridge_);
    kernels::sgemmABt(basis, w_, staged_.data(), r_, n_, m_, false);
    choleskySolveInPlace(gram_.data(), r_, staged_.data(), m_);
    kernels::transposeF(staged_.data(), r_, m_, ce);
}

Tensor
fitCoefficientsMasked(const Tensor &w, const Tensor &b, const Tensor &mask,
                      double ridge)
{
    SE_ASSERT(mask.dim(0) == w.dim(0) && mask.dim(1) == b.dim(0),
              "mask shape mismatch");
    const int64_t m = w.dim(0), r = b.dim(0), n = b.dim(1);
    Tensor ce({m, r});

    // Every per-row Gram entry is a dot product of two full basis
    // rows — independent of the mask — so the r x r Gram B B^T and
    // the m x r right-hand side W B^T are each computed ONCE through
    // kernels::gemmABtColBiasD (the double-chain ascending-t kernel,
    // the exact rounding sequence of the per-row dots the
    // tests/reference oracle recomputes), and each row's solve just
    // gathers its masked submatrix: O(r^2 * n + m*r*n) GEMM work in
    // place of O(m * q^2 * n) dot products, bit-identically.
    Tensor gram_full({r, r});
    kernels::gemmABtColBiasD(b.data(), b.data(), nullptr,
                             gram_full.data(), r, n, r);
    Tensor rhs_full({m, r});
    kernels::gemmABtColBiasD(w.data(), b.data(), nullptr,
                             rhs_full.data(), m, n, r);

    std::vector<int64_t> idx;
    idx.reserve((size_t)r);
    std::vector<float> gram((size_t)(r * r)), rhs((size_t)r);
    for (int64_t i = 0; i < m; ++i) {
        idx.clear();
        for (int64_t j = 0; j < r; ++j)
            if (mask.at(i, j) != 0.0f)
                idx.push_back(j);
        if (idx.empty())
            continue;
        const int64_t q = (int64_t)idx.size();
        for (int64_t u = 0; u < q; ++u) {
            for (int64_t v = 0; v < q; ++v)
                gram[(size_t)(u * q + v)] =
                    gram_full.at(idx[(size_t)u], idx[(size_t)v]);
            gram[(size_t)(u * q + u)] += (float)ridge + 1e-7f;
            rhs[(size_t)u] = rhs_full.at(i, idx[(size_t)u]);
        }
        choleskySolveInPlace(gram.data(), q, rhs.data(), 1);
        for (int64_t u = 0; u < q; ++u)
            ce.at(i, idx[(size_t)u]) = rhs[(size_t)u];
    }
    return ce;
}

} // namespace linalg
} // namespace se
