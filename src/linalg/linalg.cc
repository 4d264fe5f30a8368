#include "linalg/linalg.hh"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "kernels/gemm.hh"

namespace se {
namespace linalg {

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

/**
 * Check the live-row list of an m-row problem: ascending, distinct and
 * in range (the refit bodies index by it).
 */
void
checkRows(const std::vector<int64_t> &rows, int64_t m)
{
    for (size_t q = 0; q < rows.size(); ++q)
        SE_ASSERT(rows[q] >= (q ? rows[q - 1] + 1 : 0) && rows[q] < m,
                  "AlsSolver rows must be ascending and in range");
}

/**
 * fitBasis' normal equations in one sweep over the listed rows p of
 * Ce (m x r) and W (m x n): G = Ce^T Ce (r x r) and H = Ce^T W
 * (r x n) accumulate together. Every entry keeps sgemm's float chain
 * (ascending p, a round after every add, zero Ce[p][i] skipped), so
 * the result equals transpose-then-sgemm bit for bit; rows left out
 * contribute nothing. The skip is a select of the old accumulator,
 * never an add of 0 (0 * Inf differs from a skip). kS > 0 fixes
 * r = n = kS at compile time so the accumulators live in registers;
 * kS = 0 takes r and n from the arguments and accumulates in g and h.
 * One body serves both.
 */
template <int64_t kS>
void
gramSweep(const float *ce, const float *w, const int64_t *rows,
          int64_t count, int64_t r_arg, int64_t n_arg, float *g, float *h)
{
    const int64_t r = kS ? kS : r_arg, n = kS ? kS : n_arg;
    float g_reg[kS ? kS * kS : 1], h_reg[kS ? kS * kS : 1];
    float *ga = kS ? g_reg : g, *ha = kS ? h_reg : h;
    std::fill(ga, ga + r * r, 0.0f);
    std::fill(ha, ha + r * n, 0.0f);
    for (int64_t q = 0; q < count; ++q) {
        const float *cp = ce + rows[q] * r;
        const float *wp = w + rows[q] * n;
#pragma GCC unroll 4
        for (int64_t i = 0; i < r; ++i) {
            const float a = cp[i];
            const bool nz = a != 0.0f;
#pragma GCC unroll 4
            for (int64_t j = 0; j < r; ++j) {
                const float t = ga[i * r + j] + a * cp[j];
                ga[i * r + j] = nz ? t : ga[i * r + j];
            }
#pragma GCC unroll 4
            for (int64_t k = 0; k < n; ++k) {
                const float t = ha[i * n + k] + a * wp[k];
                ha[i * n + k] = nz ? t : ha[i * n + k];
            }
        }
    }
    if (kS) {
        std::copy(ga, ga + r * r, g);
        std::copy(ha, ha + r * n, h);
    }
}

/**
 * fitCoefficients' right-hand sides: x[i][q] = B[i] . W[rows[q]]
 * (r x count), each an ascending-k float chain with zero B[i][k]
 * skipped (a dot product per entry). Null rows means 0..count-1, so
 * W = B, count = r gives the Gram B B^T. kS as in gramSweep: a fixed
 * shape keeps B in registers.
 */
template <int64_t kS>
void
rhsSweep(const float *b, const float *w, const int64_t *rows,
         int64_t count, int64_t r_arg, int64_t n_arg, float *__restrict x)
{
    const int64_t r = kS ? kS : r_arg, n = kS ? kS : n_arg;
    for (int64_t q = 0; q < count; ++q) {
        const float *wp = w + (rows ? rows[q] : q) * n;
#pragma GCC unroll 4
        for (int64_t i = 0; i < r; ++i) {
            float acc = 0.0f;
#pragma GCC unroll 4
            for (int64_t k = 0; k < n; ++k) {
                const float a = b[i * n + k];
                const float t = acc + a * wp[k];
                acc = a != 0.0f ? t : acc;
            }
            x[i * count + q] = acc;
        }
    }
}

/**
 * Call f with the refit bodies' compile-time size: r for square
 * pieces up to 4 x 4 (every conv and fc piece: B is n x n with n = 3
 * or 4), 0 (runtime shape) otherwise.
 */
template <typename F>
void
withPieceSize(int64_t r, int64_t n, F &&f)
{
    switch (r == n ? r : 0) {
    case 1: return f(std::integral_constant<int64_t, 1>{});
    case 2: return f(std::integral_constant<int64_t, 2>{});
    case 3: return f(std::integral_constant<int64_t, 3>{});
    case 4: return f(std::integral_constant<int64_t, 4>{});
    default: return f(std::integral_constant<int64_t, 0>{});
    }
}

/** w, after the constructor's checks, so nothing is sized before them. */
const Tensor &
checkedAlsW(const Tensor &w, int64_t r)
{
    SE_ASSERT(w.ndim() == 2 && r > 0, "AlsSolver needs a 2-D W, r > 0");
    return w;
}

} // namespace

AlsSolver::AlsSolver(const Tensor &w, int64_t r, double ridge)
    : w_(checkedAlsW(w, r).data()), m_(w.dim(0)), n_(w.dim(1)), r_(r),
      ridge_(ridge), gram_((size_t)(r * r)), staged_((size_t)(r * m_))
{
}

void
AlsSolver::fitBasis(const float *ce, const std::vector<int64_t> &rows,
                    float *basis)
{
    checkRows(rows, m_);
    withPieceSize(r_, n_, [&](auto size) {
        gramSweep<size()>(ce, w_, rows.data(), (int64_t)rows.size(), r_,
                          n_, gram_.data(), basis);
    });
    addAdaptiveRidge(gram_.data(), r_, ridge_);
    choleskySolveInPlace(gram_.data(), r_, basis, n_);
}

void
AlsSolver::fitCoefficients(const float *basis,
                           const std::vector<int64_t> &rows, float *ce)
{
    checkRows(rows, m_);
    const int64_t count = (int64_t)rows.size();
    withPieceSize(r_, n_, [&](auto size) {
        rhsSweep<size()>(basis, basis, nullptr, r_, r_, n_, gram_.data());
        addAdaptiveRidge(gram_.data(), r_, ridge_);
        rhsSweep<size()>(basis, w_, rows.data(), count, r_, n_,
                         staged_.data());
    });
    // The r x count solution holds the live rows of Ce, transposed:
    // scatter it over a +0 Ce.
    choleskySolveInPlace(gram_.data(), r_, staged_.data(), count);
    std::fill(ce, ce + m_ * r_, 0.0f);
    for (int64_t q = 0; q < count; ++q)
        for (int64_t i = 0; i < r_; ++i)
            ce[rows[(size_t)q] * r_ + i] = staged_[(size_t)(i * count + q)];
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
