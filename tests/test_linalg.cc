/**
 * @file
 * Unit and property tests for the dense linear algebra kernels, in
 * particular the alternating least-squares updates that drive the
 * SmartExchange decomposition.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "base/random.hh"
#include "kernels/dispatch.hh"
#include "kernels/gemm.hh"
#include "linalg/linalg.hh"
#include "reference/reference.hh"

namespace se {
namespace {

using kernels::gemm;
using linalg::AlsSolver;
using linalg::choleskySolve;
using linalg::fitCoefficientsMasked;
using linalg::frobDiff;
using linalg::frobNorm;
using linalg::transpose;

/** 0..m-1: every row live. */
std::vector<int64_t>
allRows(int64_t m)
{
    std::vector<int64_t> rows((size_t)m);
    for (int64_t i = 0; i < m; ++i)
        rows[(size_t)i] = i;
    return rows;
}

/** B = argmin ||W - Ce B|| for one Ce, through AlsSolver. */
Tensor
fitBasis(const Tensor &w, const Tensor &ce, double ridge = 1e-8)
{
    Tensor b({ce.dim(1), w.dim(1)});
    AlsSolver(w, ce.dim(1), ridge)
        .fitBasis(ce.data(), allRows(w.dim(0)), b.data());
    return b;
}

/** Ce = argmin ||W - Ce B|| for one B, through AlsSolver. */
Tensor
fitCoefficients(const Tensor &w, const Tensor &b, double ridge = 1e-8)
{
    Tensor ce({w.dim(0), b.dim(0)});
    AlsSolver(w, b.dim(0), ridge)
        .fitCoefficients(b.data(), allRows(w.dim(0)), ce.data());
    return ce;
}

/** The adaptive ridge AlsSolver adds to its Gram matrices. */
void
addReferenceRidge(Tensor &gram, double ridge)
{
    float max_diag = 0.0f;
    for (int64_t i = 0; i < gram.dim(0); ++i)
        max_diag = std::max(max_diag, gram.at(i, i));
    const float eps = (float)(ridge + 1e-5 * (double)max_diag) + 1e-7f;
    for (int64_t i = 0; i < gram.dim(0); ++i)
        gram.at(i, i) += eps;
}

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(),
                       (size_t)a.size() * sizeof(float)) == 0;
}

/** A copy of t with every row outside `rows` set to `fill`. */
Tensor
withDeadRows(const Tensor &t, const std::vector<int64_t> &rows, float fill)
{
    Tensor out = t;
    std::vector<bool> live((size_t)t.dim(0), false);
    for (int64_t i : rows)
        live[(size_t)i] = true;
    for (int64_t i = 0; i < t.dim(0); ++i)
        if (!live[(size_t)i])
            for (int64_t j = 0; j < t.dim(1); ++j)
                out.at(i, j) = fill;
    return out;
}

/**
 * Ce for the refit wall: variant 0 has scattered zeros and a fully
 * zero last column, 1 has +0/-0 entries and whole +-0 rows, 2 has
 * whole zero rows only, 3 is all zero. (Variant 4 is variant 0 with
 * an Inf in W, where a skipped zero and an added 0 * Inf differ.)
 */
Tensor
wallCe(int64_t m, int64_t r, int variant, Rng &rng)
{
    if (variant == 4)
        variant = 0;
    Tensor ce = randn({m, r}, rng);
    for (int64_t i = 0; i < m; ++i) {
        const bool zero_row = variant != 0 && rng.chance(0.25);
        for (int64_t j = 0; j < r; ++j) {
            float &v = ce.at(i, j);
            if (variant == 3 || zero_row ||
                (variant == 0 && (j == r - 1 || rng.chance(0.3))) ||
                (variant == 1 && rng.chance(0.3)))
                v = variant == 1 && rng.chance(0.5) ? -0.0f : 0.0f;
        }
    }
    return ce;
}

/**
 * The wall for AlsSolver's refit bodies: on raw buffers, restricted to
 * a live-row set, both refits must equal the plain Tensor formulation
 * of the normal equations (transpose, matmul, choleskySolve) over Ce
 * with the dead rows zeroed, bit for bit — with the formulation's
 * products on the blocked matmul under every kernel ISA and on the
 * reference loop. Covers r in 1..8 (the register-resident shapes
 * and the runtime-shape body), n = r and n != r, Ce with zero rows,
 * +-0 entries, a zero column or all zero, an Inf in W (so a zero
 * left-operand entry must be skipped, not multiplied), and live sets
 * of all rows, half of them and exactly r. fitBasis must not read
 * dead Ce rows (they hold NaN here); fitCoefficients must return them
 * as +0.
 */
TEST(Linalg, AlsSolverMatchesTensorFormulationBitForBit)
{
    const float nan = std::nanf("");
    const kernels::KernelIsa prev = kernels::activeIsa();
    for (kernels::KernelIsa isa : kernels::supportedIsas()) {
        kernels::setActiveIsa(isa);
        for (auto matmul : {&kernels::gemm, &reference::matmul}) {
            for (int64_t r = 1; r <= 8; ++r) {
                for (int64_t n : {r, r % 4 + 1}) {
                    for (int64_t m :
                         {r, 3 * r + 2, (int64_t)41, (int64_t)150}) {
                        Rng rng(200 + (uint64_t)(m * 100 + r * 10 + n));
                        const Tensor w_finite = randn({m, n}, rng);
                        Tensor b = randn({r, n}, rng);
                        for (int64_t i = 0; i < b.size(); ++i)
                            if (rng.chance(0.2))
                                b[i] = rng.chance(0.5) ? -0.0f : 0.0f;
                        for (int64_t i = 0; i < r; ++i)
                            b.at(i, i % n) += 2.0f;
                        std::vector<std::vector<int64_t>> live_sets{
                            allRows(m), {}, {}};
                        for (int64_t i = 0; i < m; i += 2)
                            live_sets[1].push_back(i);
                        for (int64_t i = 0; i < r; ++i)
                            live_sets[2].push_back(i * m / r);

                        for (int variant = 0; variant < 5; ++variant) {
                            const Tensor ce = wallCe(m, r, variant, rng);
                            Tensor w = w_finite;
                            if (variant == 4)  // row 0 is always live
                                w.at(0, n - 1) = INFINITY;
                            for (const auto &rows : live_sets) {
                                const std::string what =
                                    std::string(kernels::isaName(isa)) +
                                    " m=" + std::to_string(m) +
                                    " r=" + std::to_string(r) +
                                    " n=" + std::to_string(n) +
                                    " variant=" + std::to_string(variant) +
                                    " live=" + std::to_string(rows.size());
                                AlsSolver als(w, r, 1e-8);

                                const Tensor ce_live =
                                    withDeadRows(ce, rows, 0.0f);
                                Tensor cet = transpose(ce_live);
                                Tensor gram = matmul(cet, ce_live);
                                addReferenceRidge(gram, 1e-8);
                                const Tensor want_b =
                                    choleskySolve(gram, matmul(cet, w));
                                Tensor got_b({r, n});
                                const Tensor ce_nan =
                                    withDeadRows(ce, rows, nan);
                                als.fitBasis(ce_nan.data(), rows,
                                             got_b.data());
                                EXPECT_TRUE(sameBits(got_b, want_b))
                                    << "fitBasis " << what;

                                Tensor bgram = matmul(b, transpose(b));
                                addReferenceRidge(bgram, 1e-8);
                                const Tensor want_ce = withDeadRows(
                                    transpose(choleskySolve(
                                        bgram, matmul(b, transpose(w)))),
                                    rows, 0.0f);
                                Tensor got_ce({m, r}, nan);
                                als.fitCoefficients(b.data(), rows,
                                                    got_ce.data());
                                EXPECT_TRUE(sameBits(got_ce, want_ce))
                                    << "fitCoefficients " << what;
                            }
                        }
                    }
                }
            }
        }
    }
    kernels::setActiveIsa(prev);
}

/**
 * The constructor validates W and r before it sizes anything: a 1-D W
 * or r <= 0 is the documented panic, not an out-of-bounds dim() read
 * or a std::length_error from a negative buffer size. Unsorted or
 * out-of-range live rows are a panic too.
 */
TEST(Linalg, AlsSolverRejectsBadShapes)
{
    const Tensor w1d({6});
    EXPECT_DEATH(AlsSolver(w1d, 1), "needs a 2-D W, r > 0");
    const Tensor w({6, 3});
    EXPECT_DEATH(AlsSolver(w, 0), "needs a 2-D W, r > 0");
    EXPECT_DEATH(AlsSolver(w, -1), "needs a 2-D W, r > 0");

    Tensor ce({6, 3}), b({3, 3});
    EXPECT_DEATH(AlsSolver(w, 3).fitBasis(ce.data(), {2, 1}, b.data()),
                 "ascending and in range");
    EXPECT_DEATH(AlsSolver(w, 3).fitCoefficients(b.data(), {0, 6},
                                                 ce.data()),
                 "ascending and in range");
}

TEST(Linalg, MatmulSmall)
{
    Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
    Tensor b({3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
    Tensor c = gemm(a, b);
    EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
    EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
    EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Linalg, MatmulIdentity)
{
    Rng rng(1);
    Tensor a = randn({5, 5}, rng);
    Tensor c = gemm(a, eye(5));
    EXPECT_LT(frobDiff(a, c), 1e-6);
}

TEST(Linalg, MatmulDimMismatchDies)
{
    Tensor a({2, 3});
    Tensor b({2, 3});
    EXPECT_DEATH(gemm(a, b), "inner dim");
}

TEST(Linalg, TransposeRoundTrip)
{
    Rng rng(2);
    Tensor a = randn({4, 7}, rng);
    Tensor t = transpose(transpose(a));
    EXPECT_LT(frobDiff(a, t), 1e-7);
}

TEST(Linalg, FrobNorm)
{
    Tensor a({2, 2}, std::vector<float>{3, 0, 0, 4});
    EXPECT_NEAR(frobNorm(a), 5.0, 1e-6);
}

TEST(Linalg, CholeskySolvesSpdSystem)
{
    // A = M^T M + I is SPD.
    Rng rng(3);
    Tensor m = randn({6, 6}, rng);
    Tensor a = gemm(transpose(m), m);
    for (int64_t i = 0; i < 6; ++i)
        a.at(i, i) += 1.0f;
    Tensor x_true = randn({6, 2}, rng);
    Tensor b = gemm(a, x_true);
    Tensor x = choleskySolve(a, b);
    EXPECT_LT(frobDiff(x, x_true), 1e-3);
}

TEST(Linalg, CholeskyRejectsIndefinite)
{
    Tensor a({2, 2}, std::vector<float>{1, 2, 2, 1});  // eigenvalue -1
    Tensor b({2, 1}, std::vector<float>{1, 1});
    EXPECT_DEATH(choleskySolve(a, b), "positive definite");
}

TEST(Linalg, FitBasisRecoversExactFactorization)
{
    // W = Ce * B exactly; fitBasis must recover B given Ce.
    Rng rng(4);
    Tensor ce = randn({40, 3}, rng);
    Tensor b_true = randn({3, 3}, rng);
    Tensor w = gemm(ce, b_true);
    Tensor b = fitBasis(w, ce);
    EXPECT_LT(frobDiff(b, b_true), 1e-3);
}

TEST(Linalg, FitCoefficientsRecoversExactFactorization)
{
    Rng rng(5);
    Tensor ce_true = randn({40, 3}, rng);
    Tensor b = randn({3, 3}, rng);
    // Make B well-conditioned.
    for (int64_t i = 0; i < 3; ++i)
        b.at(i, i) += 2.0f;
    Tensor w = gemm(ce_true, b);
    Tensor ce = fitCoefficients(w, b);
    EXPECT_LT(frobDiff(ce, ce_true), 1e-2);
}

TEST(Linalg, FitBasisToleratesZeroColumns)
{
    // A fully-pruned coefficient column must not break the solve.
    Rng rng(6);
    Tensor ce = randn({20, 3}, rng);
    for (int64_t i = 0; i < 20; ++i)
        ce.at(i, 1) = 0.0f;
    Tensor w = randn({20, 3}, rng);
    Tensor b = fitBasis(w, ce);
    EXPECT_EQ(b.dim(0), 3);
    for (int64_t i = 0; i < b.size(); ++i)
        EXPECT_TRUE(std::isfinite(b[i]));
}

TEST(Linalg, FitReducesResidualMonotonically)
{
    // One ALS round from a random start must not increase the
    // reconstruction error.
    Rng rng(7);
    Tensor w = randn({30, 3}, rng);
    Tensor ce = w;
    Tensor b = eye(3);
    double prev = frobDiff(w, gemm(ce, b));
    for (int it = 0; it < 5; ++it) {
        b = fitBasis(w, ce);
        ce = fitCoefficients(w, b);
        const double err = frobDiff(w, gemm(ce, b));
        // Slack covers the adaptive ridge bias (~1e-5 relative).
        EXPECT_LE(err, prev + 5e-4);
        prev = err;
    }
}

TEST(Linalg, MaskedFitKeepsZerosZero)
{
    Rng rng(8);
    Tensor w = randn({10, 3}, rng);
    Tensor b = randn({3, 3}, rng);
    for (int64_t i = 0; i < 3; ++i)
        b.at(i, i) += 2.0f;
    Tensor mask({10, 3}, 1.0f);
    mask.at(0, 0) = 0.0f;
    mask.at(4, 2) = 0.0f;
    for (int64_t j = 0; j < 3; ++j)
        mask.at(7, j) = 0.0f;  // fully-pruned row
    Tensor ce = fitCoefficientsMasked(w, b, mask);
    EXPECT_FLOAT_EQ(ce.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(ce.at(4, 2), 0.0f);
    for (int64_t j = 0; j < 3; ++j)
        EXPECT_FLOAT_EQ(ce.at(7, j), 0.0f);
}

TEST(Linalg, MaskedFitBeatsZeroedUnmaskedFit)
{
    // Refitting on the support must give at-most-equal error compared
    // to taking the unmasked fit and zeroing entries afterwards.
    Rng rng(9);
    Tensor w = randn({20, 3}, rng);
    Tensor b = randn({3, 3}, rng);
    for (int64_t i = 0; i < 3; ++i)
        b.at(i, i) += 2.0f;
    Tensor free = fitCoefficients(w, b);
    Tensor mask({20, 3}, 1.0f);
    Rng mask_rng(10);
    for (int64_t i = 0; i < mask.size(); ++i)
        if (mask_rng.chance(0.3))
            mask[i] = 0.0f;
    Tensor zeroed = free;
    for (int64_t i = 0; i < zeroed.size(); ++i)
        zeroed[i] *= mask[i];
    Tensor refit = fitCoefficientsMasked(w, b, mask);
    const double err_zeroed = frobDiff(w, gemm(zeroed, b));
    const double err_refit = frobDiff(w, gemm(refit, b));
    EXPECT_LE(err_refit, err_zeroed + 1e-5);
}

TEST(Linalg, MaskedFitGemmLoweringBitIdenticalToLegacy)
{
    // The GEMM-backed masked refit (B B^T and W B^T precomputed once
    // through kernels::gemmABtColBiasD, per-row masked gather) must
    // reproduce the reference per-row-dot loop to the last bit — the
    // same contract matmul keeps with its reference. Sweep shapes across
    // ranks and mask densities, including empty rows and a full mask.
    Rng rng(11);
    for (const auto &dims : std::vector<std::vector<int64_t>>{
             {1, 1, 1}, {10, 3, 3}, {33, 5, 17}, {64, 9, 40}}) {
        const int64_t m = dims[0], r = dims[1], n = dims[2];
        Tensor w = randn({m, n}, rng);
        Tensor b = randn({r, n}, rng);
        for (int64_t i = 0; i < r; ++i)
            b.at(i, i % n) += 2.0f;
        for (double density : {1.0, 0.6, 0.25}) {
            Tensor mask({m, r}, 1.0f);
            for (int64_t i = 0; i < mask.size(); ++i)
                if (!rng.chance(density))
                    mask[i] = 0.0f;
            const Tensor fast = fitCoefficientsMasked(w, b, mask);
            const Tensor slow =
                reference::fitCoefficientsMasked(w, b, mask);
            ASSERT_EQ(fast.shape(), slow.shape());
            EXPECT_EQ(std::memcmp(fast.data(), slow.data(),
                                  (size_t)fast.size() * sizeof(float)),
                      0)
                << m << "x" << r << "x" << n
                << " density=" << density;
        }
    }
}

/** Property sweep: ALS fixed points across sizes. */
class AlsSweep : public ::testing::TestWithParam<int64_t>
{
};

TEST_P(AlsSweep, ExactFactorizationsAreFixedPoints)
{
    const int64_t m = GetParam();
    Rng rng(100 + (uint64_t)m);
    Tensor ce = randn({m, 3}, rng);
    Tensor b = randn({3, 3}, rng);
    for (int64_t i = 0; i < 3; ++i)
        b.at(i, i) += 2.0f;
    Tensor w = gemm(ce, b);
    Tensor b2 = fitBasis(w, ce);
    Tensor ce2 = fitCoefficients(w, b2);
    EXPECT_LT(frobDiff(w, gemm(ce2, b2)) /
                  std::max(1e-12, frobNorm(w)),
              1e-3);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AlsSweep,
                         ::testing::Values<int64_t>(3, 9, 27, 64, 192));

} // namespace
} // namespace se
