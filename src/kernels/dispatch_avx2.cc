/**
 * @file
 * AVX2 micro-kernel variants: 256-bit register tiles (16 columns as
 * two YMM accumulators, two A rows per pass — 4 live accumulator
 * registers plus broadcasts and B loads, sized for FMA-class cores)
 * for the float chains, one YMM per Ce row for the Ce-code strip
 * (n <= 8 columns), and 6 A rows x 8 columns of double accumulators
 * (12 YMM) for the offset-addressed double chain, whose A rows are
 * widened to double once per row block and broadcast from memory.
 *
 * This TU is compiled with -mavx2 and deliberately WITHOUT -mfma:
 * a fused multiply-add rounds once where the bit-identity contract
 * (the legacy loops' mul-round-add-round float chain) rounds twice,
 * so with the FMA ISA masked off the compiler cannot contract the
 * mul+add pairs below and every byte matches the scalar reference.
 * Lanes are distinct output elements accumulated in ascending-k
 * order, and the float chains keep the A-side zero-skip per row (the
 * double chain has none, like its scalar reference).
 *
 * The sgemm and double-chain panels run their remainder columns
 * (narrower than a register tile) through the scalar reference panels
 * themselves; the Ce-code strip masks its loads and stores instead.
 *
 * When the build lacks -mavx2 support (non-x86 target, old compiler),
 * avx2Ops() returns nullptr and dispatch falls back to scalar.
 */

#include "kernels/dispatch_variants.hh"

#ifdef __AVX2__

#include <immintrin.h>

#include <algorithm>

#include "kernels/scratch.hh"

namespace se {
namespace kernels {
namespace detail {

namespace {

constexpr int64_t kTile = 16;  // columns per register tile (2 x YMM)
constexpr int64_t kHalf = 8;   // single-YMM stage

void
sgemmPanelAvx2(const float *__restrict a, const float *__restrict b,
               float *__restrict c, int64_t m, int64_t k, int64_t n,
               bool accumulate, int64_t j0, int64_t j1)
{
    int64_t jt = j0;
    for (; jt + kTile <= j1; jt += kTile) {
        int64_t i = 0;
        for (; i + 2 <= m; i += 2) {
            const float *a0 = a + i * k;
            const float *a1 = a0 + k;
            float *c0 = c + i * n + jt;
            float *c1 = c0 + n;
            __m256 acc00, acc01, acc10, acc11;
            if (accumulate) {
                acc00 = _mm256_loadu_ps(c0);
                acc01 = _mm256_loadu_ps(c0 + 8);
                acc10 = _mm256_loadu_ps(c1);
                acc11 = _mm256_loadu_ps(c1 + 8);
            } else {
                acc00 = acc01 = acc10 = acc11 = _mm256_setzero_ps();
            }
            const float *bp = b + jt;
            for (int64_t p = 0; p < k; ++p, bp += n) {
                const float av0 = a0[p];
                const float av1 = a1[p];
                if (av0 == 0.0f && av1 == 0.0f)
                    continue;
                const __m256 b0 = _mm256_loadu_ps(bp);
                const __m256 b1 = _mm256_loadu_ps(bp + 8);
                if (av0 != 0.0f) {
                    const __m256 va = _mm256_set1_ps(av0);
                    acc00 = _mm256_add_ps(acc00,
                                          _mm256_mul_ps(va, b0));
                    acc01 = _mm256_add_ps(acc01,
                                          _mm256_mul_ps(va, b1));
                }
                if (av1 != 0.0f) {
                    const __m256 va = _mm256_set1_ps(av1);
                    acc10 = _mm256_add_ps(acc10,
                                          _mm256_mul_ps(va, b0));
                    acc11 = _mm256_add_ps(acc11,
                                          _mm256_mul_ps(va, b1));
                }
            }
            _mm256_storeu_ps(c0, acc00);
            _mm256_storeu_ps(c0 + 8, acc01);
            _mm256_storeu_ps(c1, acc10);
            _mm256_storeu_ps(c1 + 8, acc11);
        }
        if (i < m) {
            const float *ai = a + i * k;
            float *ci = c + i * n + jt;
            __m256 acc0, acc1;
            if (accumulate) {
                acc0 = _mm256_loadu_ps(ci);
                acc1 = _mm256_loadu_ps(ci + 8);
            } else {
                acc0 = acc1 = _mm256_setzero_ps();
            }
            const float *bp = b + jt;
            for (int64_t p = 0; p < k; ++p, bp += n) {
                const float av = ai[p];
                if (av == 0.0f)
                    continue;
                const __m256 va = _mm256_set1_ps(av);
                acc0 = _mm256_add_ps(
                    acc0, _mm256_mul_ps(va, _mm256_loadu_ps(bp)));
                acc1 = _mm256_add_ps(
                    acc1, _mm256_mul_ps(va, _mm256_loadu_ps(bp + 8)));
            }
            _mm256_storeu_ps(ci, acc0);
            _mm256_storeu_ps(ci + 8, acc1);
        }
    }
    for (; jt + kHalf <= j1; jt += kHalf) {
        for (int64_t i = 0; i < m; ++i) {
            const float *ai = a + i * k;
            float *ci = c + i * n + jt;
            __m256 acc = accumulate ? _mm256_loadu_ps(ci)
                                    : _mm256_setzero_ps();
            const float *bp = b + jt;
            for (int64_t p = 0; p < k; ++p, bp += n) {
                const float av = ai[p];
                if (av == 0.0f)
                    continue;
                acc = _mm256_add_ps(
                    acc, _mm256_mul_ps(_mm256_set1_ps(av),
                                       _mm256_loadu_ps(bp)));
            }
            _mm256_storeu_ps(ci, acc);
        }
    }
    sgemmPanelScalar(a, b, c, m, k, n, accumulate, jt, j1);
}

/**
 * Fused Ce-code strip: one Ce row per step, its n <= 8 output
 * columns side by side in one YMM. Masked loads keep every basis read
 * inside the r x n matrix and masked stores keep every write inside
 * the row. The zero-code skip is a blend that keeps the old
 * accumulator, so a zero code never multiplies (0 * Inf) or adds
 * (-0 + +0) anything. With the rank R fixed at compile time the R
 * basis rows stay in registers for the whole piece, and a row's R
 * codes are read as one two-byte word: for R = 3 they span exactly
 * two bytes from either nibble, and R = 4 rows start on an even code.
 * R == 0 reads the rank from r and reloads rows and codes per step.
 */
template <int R>
void
ceSmallNAvx2(const uint8_t *row_mask, const uint8_t *nibbles, int64_t m,
             int64_t r, const float *__restrict basis, int64_t n,
             int64_t ld, const float *__restrict lut, float *out,
             float *last_row)
{
    static_assert(R == 0 || R == 3 || R == 4,
                  "the two-byte code word needs R = 3 or 4");
    const __m256i cols =
        _mm256_cmpgt_epi32(_mm256_set1_epi32((int)n),
                           _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    const __m256 zero = _mm256_setzero_ps();
    __m256 held[R > 0 ? R : 1];
    for (int p = 0; p < R; ++p)
        held[p] = _mm256_maskload_ps(basis + p * ld, cols);
    const int64_t rank = R > 0 ? R : r;
    forEachCeRow(
        row_mask, m, r, ld, out, last_row,
        [&](float *crow) { _mm256_maskstore_ps(crow, cols, zero); },
        [&](float *crow, int64_t code) {
            const uint8_t *nb = nibbles + (code >> 1);
            const unsigned word =
                R > 0 ? (nb[0] | (unsigned)nb[1] << 8) >> ((code & 1) << 2)
                      : 0u;
            __m256 acc = zero;
#pragma GCC unroll 8
            for (int64_t p = 0; p < rank; ++p) {
                const __m256 bp =
                    R > 0 ? held[p]
                          : _mm256_maskload_ps(basis + p * ld, cols);
                const __m256 va = _mm256_set1_ps(
                    lut[R > 0 ? (word >> (4 * p)) & 0xFu
                              : nibbleAt(nibbles, code + p)]);
                const __m256 sum =
                    _mm256_add_ps(acc, _mm256_mul_ps(va, bp));
                acc = _mm256_blendv_ps(
                    acc, sum, _mm256_cmp_ps(va, zero, _CMP_NEQ_OQ));
            }
            _mm256_maskstore_ps(crow, cols, acc);
        });
}

/** Rank 3 (3x3 conv pieces) and 4 (FC pieces) keep B in registers. */
void
gemmCeSmallNAvx2(const uint8_t *row_mask, const uint8_t *nibbles,
                 int64_t m, int64_t r, const float *basis, int64_t n,
                 int64_t ld, const float *lut, float *out,
                 float *last_row)
{
    switch (r) {
    case 3:
        return ceSmallNAvx2<3>(row_mask, nibbles, m, r, basis, n, ld,
                               lut, out, last_row);
    case 4:
        return ceSmallNAvx2<4>(row_mask, nibbles, m, r, basis, n, ld,
                               lut, out, last_row);
    default:
        return ceSmallNAvx2<0>(row_mask, nibbles, m, r, basis, n, ld,
                               lut, out, last_row);
    }
}

// ------------------------------------------------ double chain
//
// Each lane holds one output element's double accumulator. The
// product of two floats widened to double is exact, so mul then add
// rounds once per step, in ascending p — the scalar chain exactly.

constexpr int kRowsD = 6;  // A rows per double-chain register tile

/** True when the 2V column pairs at `pair` are one contiguous run. */
template <int V>
inline bool
pairsContiguous(const int64_t *pair)
{
    for (int h = 1; h < 2 * V; ++h)
        if (pair[h] != pair[0] + 2 * h)
            return false;
    return true;
}

/**
 * Rows [i, i + R) x columns [jt, jt + 4V) of the double chain: R x V
 * YMM accumulators of 4 doubles, seeded from the bias and narrowed to
 * float once on store. aw holds the R rows of A widened to double.
 * Each group of 4 B columns is one 4-float load when its two pairs
 * are adjacent (Contig), else two 2-float loads.
 */
template <int R, int V, bool Contig>
inline void
dchainTile(const double *aw, const DChainOperands &op, int64_t i,
           int64_t k, int64_t jt)
{
    __m256d acc[R][V];
#pragma GCC unroll 6
    for (int r = 0; r < R; ++r)
#pragma GCC unroll 2
        for (int v = 0; v < V; ++v)
            acc[r][v] =
                op.rowBias ? _mm256_set1_pd((double)op.rowBias[i + r])
                : op.colBias
                    ? _mm256_cvtps_pd(_mm_loadu_ps(op.colBias + jt + 4 * v))
                    : _mm256_setzero_pd();
    int64_t pair[2 * V];
#pragma GCC unroll 4
    for (int h = 0; h < 2 * V; ++h)
        pair[h] = op.bPair[jt / 2 + h];
    for (int64_t p = 0; p < k; ++p) {
        const float *row = op.b + op.bRow[p];
        __m256d bv[V];
#pragma GCC unroll 2
        for (int v = 0; v < V; ++v) {
            const float *lo = row + pair[2 * v];
            const __m128 g =
                Contig ? _mm_loadu_ps(lo)
                       : _mm_loadh_pi(_mm_castsi128_ps(_mm_loadl_epi64(
                                          (const __m128i *)lo)),
                                      (const __m64 *)(row + pair[2 * v + 1]));
            bv[v] = _mm256_cvtps_pd(g);
        }
#pragma GCC unroll 6
        for (int r = 0; r < R; ++r) {
            const __m256d va = _mm256_broadcast_sd(aw + r * k + p);
#pragma GCC unroll 2
            for (int v = 0; v < V; ++v)
                acc[r][v] =
                    _mm256_add_pd(acc[r][v], _mm256_mul_pd(va, bv[v]));
        }
    }
    // A group whose 4 C columns are adjacent (one sample's row) is
    // one store, any other 4 scalar stores.
    const int64_t *col = op.cCol + jt;
    bool run[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v)
        run[v] = col[4 * v + 1] == col[4 * v] + 1 &&
                 col[4 * v + 2] == col[4 * v] + 2 &&
                 col[4 * v + 3] == col[4 * v] + 3;
#pragma GCC unroll 6
    for (int r = 0; r < R; ++r) {
        float *crow = op.c + (i + r) * op.cRow;
#pragma GCC unroll 2
        for (int v = 0; v < V; ++v) {
            const __m128 y = _mm256_cvtpd_ps(acc[r][v]);
            if (run[v]) {
                _mm_storeu_ps(crow + col[4 * v], y);
            } else {
                alignas(16) float out[4];
                _mm_store_ps(out, y);
                for (int t = 0; t < 4; ++t)
                    crow[col[4 * v + t]] = out[t];
            }
        }
    }
}

/** Rows [i, i + R) over the 4-column groups of [j0, jv). */
template <int R>
void
dchainRows(const double *aw, const DChainOperands &op, int64_t i,
           int64_t k, int64_t j0, int64_t jv)
{
    int64_t jt = j0;
    for (; jt + 8 <= jv; jt += 8) {
        if (pairsContiguous<2>(op.bPair + jt / 2))
            dchainTile<R, 2, true>(aw, op, i, k, jt);
        else
            dchainTile<R, 2, false>(aw, op, i, k, jt);
    }
    if (jt < jv) {
        if (pairsContiguous<1>(op.bPair + jt / 2))
            dchainTile<R, 1, true>(aw, op, i, k, jt);
        else
            dchainTile<R, 1, false>(aw, op, i, k, jt);
    }
}

/** dchainRows<R>, indexed by the row count R of a block. */
constexpr void (*kRowBlocks[])(const double *, const DChainOperands &,
                               int64_t, int64_t, int64_t, int64_t) = {
    nullptr,       dchainRows<1>, dchainRows<2>, dchainRows<3>,
    dchainRows<4>, dchainRows<5>, dchainRows<6>};

void
gemmDChainPanelAvx2(const float *__restrict a, const DChainOperands &op,
                    int64_t m, int64_t k, int64_t j0, int64_t j1)
{
    // Whole 4-column groups in AVX2, the last 0-3 columns in scalar.
    const int64_t jv = j0 + (j1 - j0) / 4 * 4;
    double *aw = threadScratch().widened(kRowsD * k);
    for (int64_t i = 0; i < m && j0 < jv; i += kRowsD) {
        const int64_t rows = std::min<int64_t>(kRowsD, m - i);
        const float *ai = a + i * k;
        int64_t t = 0;
        for (; t + 4 <= rows * k; t += 4)
            _mm256_storeu_pd(aw + t, _mm256_cvtps_pd(_mm_loadu_ps(ai + t)));
        for (; t < rows * k; ++t)
            aw[t] = ai[t];
        kRowBlocks[rows](aw, op, i, k, j0, jv);
    }
    gemmDChainPanelScalar(a, op, m, k, jv, j1);
}

const KernelOps kAvx2Ops{sgemmPanelAvx2, gemmCeSmallNAvx2,
                         gemmDChainPanelAvx2};

} // namespace

const KernelOps *
avx2Ops()
{
    return &kAvx2Ops;
}

} // namespace detail
} // namespace kernels
} // namespace se

#else  // !__AVX2__

namespace se {
namespace kernels {
namespace detail {

const KernelOps *
avx2Ops()
{
    return nullptr;
}

} // namespace detail
} // namespace kernels
} // namespace se

#endif
