/**
 * @file
 * AVX-512 micro-kernel tier: the double-chain panel at 8 doubles per
 * ZMM, as 12 A rows x 16 columns of accumulators (24 ZMM; an 8-column
 * tile takes a remainder of 8-15 columns, and a masked 8-lane tile
 * the last 1-7), with the 12 rows widened to double once per row
 * block and broadcast from memory. The sgemm panel and the Ce-code
 * strip are the AVX2 bodies: a float chain gains nothing from wider
 * lanes at the served shapes.
 *
 * Each step is one fused multiply-add, which rounds exactly where the
 * scalar chain's multiply then add does: both factors are floats
 * widened to double, so their product (at most 48 significand bits)
 * never rounds, and the one rounding is the add's. The compiler fuses
 * nothing else (contraction is off below); tools/lint/check_fma.sh
 * fails on any fused instruction here but packed-double zmm ones.
 *
 * The build passes no ISA flag for this file (the benchmark's build
 * compiles every source but the AVX2 one with plain -O2), so the code
 * below enables AVX-512F itself with a target pragma; the zmm FMA
 * forms are part of AVX-512F, so the tier needs no other CPU check.
 *
 * Without GCC on x86 (the pragmas are GCC's), or when the AVX2 tier
 * is not compiled in, avx512Ops() returns nullptr and dispatch never
 * offers the tier.
 */

#include "kernels/dispatch_variants.hh"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__) && \
    !defined(__clang__)

#include <immintrin.h>

#include <algorithm>

#include "kernels/scratch.hh"

#pragma GCC push_options
#pragma GCC target("avx512f")
#pragma GCC optimize("fp-contract=off")

namespace se {
namespace kernels {
namespace detail {

namespace {

constexpr int kRowsZ = 12;      // A rows per register tile
constexpr int64_t kColsZ = 16;  // columns per full tile (2 x ZMM)

/**
 * How the four column pairs of each 8-column group sit in a B row:
 * one 8-float run, two 4-float runs, or four separate pairs. Gather
 * reads each live column on its own under a lane mask: the panel's
 * last group when it has an odd column count, whose last pair is
 * half past the panel's end.
 */
enum class Load { Run8, Runs4, Pairs, Gather };

// GCC's _mm512_cvtps_pd, _mm512_cvtpd_ps and _mm512_castps512_ps256
// pass an undefined vector as the source of masked-off lanes, which
// -Wmaybe-uninitialized flags wherever they inline; with every lane
// selected, the zero-masked forms are the same instruction.

/** 8 floats widened to double. */
inline __m512d
widen(__m256 x)
{
    return _mm512_maskz_cvtps_pd(0xFF, x);
}

/** The live floats of the 8 at p (the others 0), widened. */
inline __m512d
widenMasked(__mmask8 live, const float *p)
{
    const __m512d x = _mm512_castps_pd(_mm512_maskz_loadu_ps(live, p));
    return widen(_mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xF, x, 0)));
}

/** 8 doubles rounded to float. */
inline __m256
narrow(__m512d x)
{
    return _mm512_maskz_cvtpd_ps(0xFF, x);
}

/** The narrowest Load that reads all V groups of the tile at `pair`. */
template <int V>
inline Load
loadMode(const int64_t *pair)
{
    bool run8 = true, runs4 = true;
    for (int g = 0; g < V; ++g) {
        const int64_t *q = pair + 4 * g;
        const bool lo = q[1] == q[0] + 2, hi = q[3] == q[2] + 2;
        runs4 = runs4 && lo && hi;
        run8 = run8 && lo && hi && q[2] == q[0] + 4;
    }
    return run8 ? Load::Run8 : runs4 ? Load::Runs4 : Load::Pairs;
}

/** The 8 floats of the group whose pairs are at q, widened. */
template <Load L>
inline __m512d
loadGroup(const float *row, const int64_t *q)
{
    auto pairs = [&](int64_t a, int64_t b) {
        return _mm_loadh_pi(
            _mm_castsi128_ps(_mm_loadl_epi64((const __m128i *)(row + a))),
            (const __m64 *)(row + b));
    };
    __m128 lo, hi;
    if (L == Load::Run8)
        return widen(_mm256_loadu_ps(row + q[0]));
    if (L == Load::Runs4) {
        lo = _mm_loadu_ps(row + q[0]);
        hi = _mm_loadu_ps(row + q[2]);
    } else {
        lo = pairs(q[0], q[1]);
        hi = pairs(q[2], q[3]);
    }
    return widen(_mm256_insertf128_ps(_mm256_castps128_ps256(lo), hi, 1));
}

/**
 * Rows [i, i + R) x columns [jt, jt + 8V) of the double chain: R x V
 * ZMM accumulators of 8 doubles, seeded from the bias and narrowed to
 * float once on store. aw holds the R rows of A widened to double.
 * Only the first `live` columns are read and stored: the panel's last
 * 1-7 columns run as a tile with its upper lanes masked off.
 */
template <int R, int V, Load L>
inline void
dchainTile(const double *aw, const DChainOperands &op, int64_t i,
           int64_t k, int64_t jt, int live = 8 * V)
{
    // Live lanes of group v, and their mask.
    auto lanes = [&](int v) { return std::min(8, live - 8 * v); };
    auto mask = [&](int v) { return (__mmask8)((1u << lanes(v)) - 1); };
    __m512d acc[R][V];
#pragma GCC unroll 12
    for (int r = 0; r < R; ++r)
#pragma GCC unroll 2
        for (int v = 0; v < V; ++v)
            acc[r][v] =
                op.rowBias ? _mm512_set1_pd((double)op.rowBias[i + r])
                : op.colBias
                    ? widenMasked(mask(v), op.colBias + jt + 8 * v)
                    : _mm512_setzero_pd();
    // The pair offsets loadGroup reads (a pair past the live columns
    // reads the first one again), or for Gather each live column's.
    int64_t q[8] = {};
    if (L == Load::Gather) {
        for (int t = 0; t < live; ++t)
            q[t] = op.bPair[jt / 2 + t / 2] + (t & 1);
    } else {
#pragma GCC unroll 8
        for (int h = 0; h < 4 * V; ++h)
            q[h] = op.bPair[jt / 2 + (2 * h < live ? h : 0)];
    }
    const __m512i gather = _mm512_loadu_si512(q);
    for (int64_t p = 0; p < k; ++p) {
        const float *row = op.b + op.bRow[p];
        __m512d bv[V];
#pragma GCC unroll 2
        for (int v = 0; v < V; ++v)
            bv[v] = L == Load::Gather
                        ? widen(_mm512_mask_i64gather_ps(
                              _mm256_setzero_ps(), mask(0), gather, row, 4))
                        : loadGroup<L>(row, q + 4 * v);
#pragma GCC unroll 12
        for (int r = 0; r < R; ++r) {
            const __m512d va = _mm512_set1_pd(aw[r * k + p]);
#pragma GCC unroll 2
            for (int v = 0; v < V; ++v)
                acc[r][v] = _mm512_fmadd_pd(va, bv[v], acc[r][v]);
        }
    }
    // A group whose 8 C columns are adjacent (one sample's row) is
    // one store, any other (and a partly live one) scalar stores.
    const int64_t *col = op.cCol + jt;
    bool run[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
        run[v] = lanes(v) == 8;
        for (int t = 1; t < 8 && run[v]; ++t)
            run[v] = col[8 * v + t] == col[8 * v] + t;
    }
#pragma GCC unroll 12
    for (int r = 0; r < R; ++r) {
        float *crow = op.c + (i + r) * op.cRow;
#pragma GCC unroll 2
        for (int v = 0; v < V; ++v) {
            const __m256 y = narrow(acc[r][v]);
            if (run[v]) {
                _mm256_storeu_ps(crow + col[8 * v], y);
            } else {
                alignas(32) float out[8];
                _mm256_store_ps(out, y);
                for (int t = 0; t < lanes(v); ++t)
                    crow[col[8 * v + t]] = out[t];
            }
        }
    }
}

/** The R x 8V tile at column jt, loading B the narrowest way. */
template <int R, int V>
inline void
dchainTileAt(const double *aw, const DChainOperands &op, int64_t i,
             int64_t k, int64_t jt)
{
    switch (loadMode<V>(op.bPair + jt / 2)) {
    case Load::Run8:
        return dchainTile<R, V, Load::Run8>(aw, op, i, k, jt);
    case Load::Runs4:
        return dchainTile<R, V, Load::Runs4>(aw, op, i, k, jt);
    default:  // Load::Pairs; loadMode never returns Gather
        return dchainTile<R, V, Load::Pairs>(aw, op, i, k, jt);
    }
}

/** Rows [i, i + R) over the columns [j0, j1). */
template <int R>
void
dchainRows(const double *aw, const DChainOperands &op, int64_t i,
           int64_t k, int64_t j0, int64_t j1)
{
    int64_t jt = j0;
    for (; jt + kColsZ <= j1; jt += kColsZ)
        dchainTileAt<R, 2>(aw, op, i, k, jt);
    if (jt + 8 <= j1) {
        dchainTileAt<R, 1>(aw, op, i, k, jt);
        jt += 8;
    }
    // The last 1-7 columns: an even count reads whole pairs, an odd
    // one gathers, so nothing past column j1 is read.
    const int live = (int)(j1 - jt);
    if (live % 2)
        dchainTile<R, 1, Load::Gather>(aw, op, i, k, jt, live);
    else if (live > 0)
        dchainTile<R, 1, Load::Pairs>(aw, op, i, k, jt, live);
}

/** dchainRows<R>, indexed by the row count R of a block. */
constexpr void (*kRowBlocks[])(const double *, const DChainOperands &,
                               int64_t, int64_t, int64_t, int64_t) = {
    nullptr,        dchainRows<1>,  dchainRows<2>,  dchainRows<3>,
    dchainRows<4>,  dchainRows<5>,  dchainRows<6>,  dchainRows<7>,
    dchainRows<8>,  dchainRows<9>,  dchainRows<10>, dchainRows<11>,
    dchainRows<12>};

void
gemmDChainPanelAvx512(const float *__restrict a, const DChainOperands &op,
                      int64_t m, int64_t k, int64_t j0, int64_t j1)
{
    double *aw = threadScratch().widened(kRowsZ * k);
    for (int64_t i = 0; i < m && j0 < j1; i += kRowsZ) {
        const int64_t rows = std::min<int64_t>(kRowsZ, m - i);
        const float *ai = a + i * k;
        int64_t t = 0;
        for (; t + 8 <= rows * k; t += 8)
            _mm512_storeu_pd(aw + t, widen(_mm256_loadu_ps(ai + t)));
        for (; t < rows * k; ++t)
            aw[t] = ai[t];
        kRowBlocks[rows](aw, op, i, k, j0, j1);
    }
}

} // namespace

} // namespace detail
} // namespace kernels
} // namespace se

#pragma GCC pop_options

namespace se {
namespace kernels {
namespace detail {

// Outside the pragma block: dispatch calls this to probe the tier, so
// it must run on a CPU without AVX-512 too.
const KernelOps *
avx512Ops()
{
    const KernelOps *avx2 = avx2Ops();
    if (!avx2)
        return nullptr;
    static const KernelOps ops{avx2->sgemmPanel, avx2->gemmCeSmallN,
                               gemmDChainPanelAvx512};
    return &ops;
}

} // namespace detail
} // namespace kernels
} // namespace se

#else

namespace se {
namespace kernels {
namespace detail {

const KernelOps *
avx512Ops()
{
    return nullptr;
}

} // namespace detail
} // namespace kernels
} // namespace se

#endif
