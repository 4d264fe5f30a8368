/**
 * @file
 * The SmartExchange decomposition (Section III of the paper).
 *
 * Given a weight matrix W (m x n), find W ~= Ce * B where B is a small
 * n x n basis and Ce is (a) vector-wise sparse (whole rows zero) and
 * (b) readily quantized (every non-zero is +-2^p with p drawn from a
 * small alphabet). Algorithm 1 alternates:
 *   Step 1  quantize Ce onto Omega_P (after column normalization,
 *           absorbing scales into B),
 *   Step 2  alternating least-squares refits of B and Ce,
 *   Step 3  vector-wise magnitude sparsification of Ce,
 * and concludes with a final re-quantization of Ce and re-fit of B.
 *
 * Pruning is monotone and a pruned row is exactly +0 from then on, so
 * every step but the sparsifier visits the live (unpruned) rows only;
 * each skipped term is an exact no-op, and the output is bit-identical
 * to running every step over all m rows.
 *
 * The loop also stops at an exact fixed point. An iteration's state
 * is Ce's live rows and the live count: once an iteration leaves them
 * bit-identical to how it found them, every later iteration would
 * repeat it exactly, so the remaining ones are skipped. What the full
 * loop reports is kept: `iterations` and the trace read as if every
 * iteration had run, so the output is the same bytes either way.
 */

#ifndef SE_CORE_SMART_EXCHANGE_HH
#define SE_CORE_SMART_EXCHANGE_HH

#include <vector>

#include "quant/quant.hh"
#include "tensor/tensor.hh"

namespace se {
namespace core {

/** Knobs of the SmartExchange algorithm. */
struct SeOptions
{
    /** Bits per Ce entry (1 sign + exponent codes); paper uses 4. */
    int coefBits = 4;
    /** Bits per basis entry; paper uses 8. */
    int basisBits = 8;
    /**
     * theta: rows of Ce whose max |element| (after column
     * normalization) falls below this are zeroed vector-wise. The
     * VGG19 experiment in the paper uses 4e-3; larger values push
     * sparsity up at some accuracy cost.
     */
    double vectorThreshold = 4e-3;
    /** Optional floor on the fraction of zero rows (0 disables). */
    double minVectorSparsity = 0.0;
    /**
     * Algorithm 1 iteration count; the paper uses 30. Only `tol` ends
     * the count early: a loop that stops sooner at an exact fixed
     * point still reports this many (see SeMatrix::iterations).
     */
    int maxIterations = 30;
    /** Convergence tolerance on the quantization residual delta(Ce). */
    double tol = 1e-10;
    /** Ridge added to the ALS normal equations. */
    double ridge = 1e-8;
    /**
     * After sparsification, refit the surviving Ce entries restricted
     * to their support (masked least squares) instead of the free
     * refit-then-rezero. Slightly better reconstruction at extra
     * solve cost; off by default to match Algorithm 1 literally.
     */
    bool refineOnSupport = false;
};

/** Per-iteration trace used to reproduce Fig. 9. */
struct SeTrace
{
    std::vector<double> reconError;   ///< ||W - CeB||_F / ||W||_F
    std::vector<double> vectorSparsity;
    std::vector<double> basisDrift;   ///< ||B - I||_F / ||I||_F
    std::vector<double> liveRows;     ///< share of Ce rows visited
    /**
     * Informational: the 1-based iteration that reproduced its own
     * input state, after which the loop stopped, or 0 if none did.
     * The four series above still hold one entry per iteration of the
     * full loop (the skipped ones repeat the last entry) plus the
     * conclusion's.
     */
    int fixedPointAt = 0;
};

/** The SmartExchange form {Ce, B} of a matrix plus diagnostics. */
struct SeMatrix
{
    Tensor ce;                      ///< m x r, entries in Omega_P
    Tensor basis;                   ///< r x n
    quant::Pow2Alphabet alphabet;   ///< the Omega_P used for Ce
    /**
     * The iteration count Algorithm 1 runs: the iteration at which
     * `tol` fired, else SeOptions::maxIterations, also when the loop
     * stopped early at an exact fixed point.
     */
    int iterations = 0;
    double reconRelError = 0.0;     ///< relative Frobenius error

    /** Rebuild the (approximate) weight matrix Ce * B. */
    Tensor reconstruct() const;

    /** Fraction of all-zero rows of Ce (vector-wise sparsity). */
    double vectorSparsity() const;

    /** Fraction of zero elements of Ce. */
    double elementSparsity() const;

    /** Storage cost of Ce: 1-bit row index + dense non-zero rows. */
    int64_t ceStorageBits(int coef_bits) const;

    /** Storage cost of B. */
    int64_t basisStorageBits(int basis_bits) const;
};

/**
 * Run Algorithm 1 on one matrix. W must be 2-D with n <= m; r is fixed
 * to n (full basis) as in the paper's experiments. An optional trace
 * records the per-iteration evolution.
 */
SeMatrix decomposeMatrix(const Tensor &w, const SeOptions &opts,
                         SeTrace *trace = nullptr);

} // namespace core
} // namespace se

#endif // SE_CORE_SMART_EXCHANGE_HH
