/**
 * @file
 * Runtime CPU-feature dispatch for the float- and double-chain
 * micro-kernels.
 *
 * The sgemm column-panel kernel, the fused Ce-code strip and the
 * offset-addressed double-chain panel behind the conv and Linear
 * forwards exist in explicitly register-tiled tiers — scalar (the one
 * reference, byte-for-byte the legacy rounding sequence), AVX2 (8
 * floats or 4 doubles per YMM) and AVX-512 (a double-chain panel at 8
 * doubles per ZMM; its float chains are the AVX2 bodies). The best
 * tier the CPU supports is detected once, and all preserve the
 * bit-identity contract: SIMD lanes are *different output elements*,
 * never partial sums of one element, so each element is still
 * accumulated over the inner dimension in ascending order. Float
 * chains round after every multiply and every add, and zero entries
 * of A keep the legacy skip so signed zeros and NaN propagation
 * cannot diverge. The double
 * chain adds float products widened to double, which are exact (24 +
 * 24 significand bits fit in 53), and rounds to float once on store.
 * No float chain ever fuses a multiply and an add, because a fused
 * mul+add rounds once where the float chain rounds twice: the AVX2
 * translation unit is compiled with AVX2 but *not* FMA. The AVX-512
 * one holds only the double chain, where the product never rounds,
 * so a fused step rounds exactly where the scalar add does: it issues
 * explicit zmm FMAs and switches FP contraction off for the rest.
 *
 * Selection order: SE_KERNEL_ISA (scalar | avx2 | avx512 | auto) if
 * set — rejected loudly when unrecognized or not supported by the
 * running CPU — else the widest tier the CPU has: AVX-512 (which
 * needs AVX-512F and AVX2), then AVX2, then scalar. Every tier being
 * bit-identical, the knob only ever moves wall-clock.
 */

#ifndef SE_KERNELS_DISPATCH_HH
#define SE_KERNELS_DISPATCH_HH

#include <cstdint>
#include <functional>
#include <vector>

namespace se {
namespace kernels {

/** Instruction-set level of a registered micro-kernel variant. */
enum class KernelIsa {
    Scalar,  ///< plain C++ register tiles (the bit-exact reference)
    Avx2,    ///< 256-bit tiles (no FMA — see file comment)
    Avx512,  ///< 512-bit exact-FMA double-chain tiles, AVX2 float chains
};

/** Stable lowercase name ("scalar" | "avx2" | "avx512"). */
const char *isaName(KernelIsa isa);

/**
 * Parse an ISA name as used by SE_KERNEL_ISA. "auto" (and "") mean
 * "best supported" and return detectBestIsa(); unknown names throw
 * std::invalid_argument (the strict-env contract), as does requesting
 * a level this build/CPU cannot run.
 */
KernelIsa parseKernelIsa(const char *s);

/** True when this build + CPU can execute the given variant. */
bool isaSupported(KernelIsa isa);

/** Every supported level, narrowest first (for differential sweeps). */
std::vector<KernelIsa> supportedIsas();

/** Widest level the running CPU supports (never throws). */
KernelIsa detectBestIsa();

/**
 * The process-wide active level: SE_KERNEL_ISA if set (fatal on a bad
 * value — benches/tests that want a catchable error go through
 * RuntimeOptions::fromEnv), else detectBestIsa().
 */
KernelIsa activeIsa();

/**
 * Override the active level (benches, tests, RuntimeOptions).
 * Throws std::invalid_argument if the level is not supported here.
 * Must not race in-flight kernels; results are identical for any
 * level by construction.
 */
void setActiveIsa(KernelIsa isa);

/** Register-tile width the GEMM column panels are aligned to. */
constexpr int64_t kPanelCols = 8;

/** Widest Ce*B strip one KernelOps::gemmCeSmallN call runs (one YMM). */
constexpr int64_t kCeSmallN = 8;

/**
 * The operands of the double-chain panel, addressed by offsets so a
 * conv can pass its padded input itself as B. Row p of B starts at
 * b + bRow[p], and its columns come in pairs: columns 2h and 2h + 1
 * are the two adjacent floats at bPair[h] from the row start (one
 * input row's neighbouring taps for a stride-1 conv). C[i][j] is
 * c[i * cRow + cCol[j]]. The bias is rowBias[i] (conv) or colBias[j]
 * (batched Linear); at most one is non-null, and with neither the
 * chain starts from zero. denseOperands (gemm.hh) describes plain
 * row-major matrices.
 */
struct DChainOperands
{
    const float *b = nullptr;
    const int64_t *bRow = nullptr;   ///< k row offsets into b
    const int64_t *bPair = nullptr;  ///< (n + 1) / 2 column-pair offsets
    float *c = nullptr;
    int64_t cRow = 0;                ///< C row stride
    const int64_t *cCol = nullptr;   ///< n column offsets into a C row
    const float *rowBias = nullptr;
    const float *colBias = nullptr;
};

/**
 * One micro-kernel variant: the bodies dispatched by sgemm /
 * gemmCeB / gemmDChain. The sgemm and double-chain panels take
 * [j0, j1) output-column ranges, the Ce-code strip a column pointer
 * and a row stride; every variant computes bit-identical bytes.
 */
struct KernelOps
{
    /** sgemm body: C(m x n) = [C +] A(m x k) B(k x n) over [j0,j1). */
    void (*sgemmPanel)(const float *a, const float *b, float *c,
                       int64_t m, int64_t k, int64_t n, bool accumulate,
                       int64_t j0, int64_t j1);
    /**
     * Fused Ce-code strip: rows i < m, columns j < n <= kCeSmallN of
     * decode(Ce)(m x r) * basis, with basis row p at basis + p * ld
     * and output row i at out + i * ld. A row's r codes are decoded
     * once for all n columns, which accumulate side by side in one
     * register tile, in ascending p with the zero-code skip (a branch
     * or a blend, never a multiply by zero); masked-off rows write
     * zeros. A wider output runs as 8-column strips, basis and out
     * advanced to each strip's first column. Row m - 1 goes to
     * `last_row` (n floats) when it is non-null — the staging row of
     * a padded FC piece — else to its place in `out`. Nothing past
     * column n of a row is read or stored.
     */
    void (*gemmCeSmallN)(const uint8_t *row_mask, const uint8_t *nibbles,
                         int64_t m, int64_t r, const float *basis,
                         int64_t n, int64_t ld, const float *lut,
                         float *out, float *last_row);
    /**
     * Double-chain body: C[i][j] = (float)(bias + sum_p a[i][p] *
     * B[p][j]) for every row i < m and column j in [j0, j1), with a
     * (m x k) row-major and B, C and the bias as `op` describes. Each
     * element is accumulated in double in ascending p and rounded
     * once on store. j0 is even: panels split at register tiles, so
     * no column pair is cut.
     */
    void (*gemmDChainPanel)(const float *a, const DChainOperands &op,
                            int64_t m, int64_t k, int64_t j0,
                            int64_t j1);
};

/** The variant table for one level (throws if unsupported). */
const KernelOps &opsFor(KernelIsa isa);

/** The variant table for activeIsa(). */
const KernelOps &ops();

/**
 * Split the n output columns into register-tile-aligned panels and
 * fan them over the process executor — or run inline when the work is
 * small, a SerialScope is active, or the budget is 1. Each column
 * is owned by exactly one panel, so any worker count and any ISA
 * level produce identical bytes. `mults` is the multiply count the
 * parallel threshold is judged on.
 */
void forEachColumnPanel(int64_t n, int64_t mults,
                        const std::function<void(int64_t, int64_t)> &panel);

} // namespace kernels
} // namespace se

#endif // SE_KERNELS_DISPATCH_HH
