/**
 * @file
 * SSE2 micro-kernel variants: 128-bit register tiles (8 columns as
 * two XMM accumulators, two A rows per pass; one Ce row per pass in
 * the small-n Ce panel). Lanes are distinct output elements, each
 * still accumulated in ascending-k order with a round after every
 * add, and the A-side zero-skip is kept per row — so every byte
 * matches the scalar reference. No FMA exists at this ISA level, so
 * the mul-round-add-round contract holds by construction.
 */

#include "kernels/dispatch_variants.hh"

#ifdef __SSE2__

#include <emmintrin.h>

#include <algorithm>

namespace se {
namespace kernels {
namespace detail {

namespace {

constexpr int64_t kTile = 8;  // columns per register tile (2 x XMM)

/** Scalar remainder columns [jt, j1) — the reference loop verbatim. */
inline void
sgemmTail(const float *a, const float *b, float *c, int64_t m,
          int64_t k, int64_t n, bool accumulate, int64_t jt, int64_t j1)
{
    for (; jt < j1; ++jt) {
        for (int64_t i = 0; i < m; ++i) {
            const float *ai = a + i * k;
            float acc = accumulate ? c[i * n + jt] : 0.0f;
            for (int64_t p = 0; p < k; ++p) {
                const float av = ai[p];
                if (av != 0.0f)
                    acc += av * b[p * n + jt];
            }
            c[i * n + jt] = acc;
        }
    }
}

void
sgemmPanelSse2(const float *__restrict a, const float *__restrict b,
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
            __m128 acc00, acc01, acc10, acc11;
            if (accumulate) {
                acc00 = _mm_loadu_ps(c0);
                acc01 = _mm_loadu_ps(c0 + 4);
                acc10 = _mm_loadu_ps(c1);
                acc11 = _mm_loadu_ps(c1 + 4);
            } else {
                acc00 = acc01 = acc10 = acc11 = _mm_setzero_ps();
            }
            const float *bp = b + jt;
            for (int64_t p = 0; p < k; ++p, bp += n) {
                const float av0 = a0[p];
                const float av1 = a1[p];
                if (av0 == 0.0f && av1 == 0.0f)
                    continue;
                const __m128 b0 = _mm_loadu_ps(bp);
                const __m128 b1 = _mm_loadu_ps(bp + 4);
                if (av0 != 0.0f) {
                    const __m128 va = _mm_set1_ps(av0);
                    acc00 = _mm_add_ps(acc00, _mm_mul_ps(va, b0));
                    acc01 = _mm_add_ps(acc01, _mm_mul_ps(va, b1));
                }
                if (av1 != 0.0f) {
                    const __m128 va = _mm_set1_ps(av1);
                    acc10 = _mm_add_ps(acc10, _mm_mul_ps(va, b0));
                    acc11 = _mm_add_ps(acc11, _mm_mul_ps(va, b1));
                }
            }
            _mm_storeu_ps(c0, acc00);
            _mm_storeu_ps(c0 + 4, acc01);
            _mm_storeu_ps(c1, acc10);
            _mm_storeu_ps(c1 + 4, acc11);
        }
        if (i < m) {
            const float *ai = a + i * k;
            float *ci = c + i * n + jt;
            __m128 acc0, acc1;
            if (accumulate) {
                acc0 = _mm_loadu_ps(ci);
                acc1 = _mm_loadu_ps(ci + 4);
            } else {
                acc0 = acc1 = _mm_setzero_ps();
            }
            const float *bp = b + jt;
            for (int64_t p = 0; p < k; ++p, bp += n) {
                const float av = ai[p];
                if (av == 0.0f)
                    continue;
                const __m128 va = _mm_set1_ps(av);
                acc0 = _mm_add_ps(acc0,
                                  _mm_mul_ps(va, _mm_loadu_ps(bp)));
                acc1 = _mm_add_ps(acc1,
                                  _mm_mul_ps(va, _mm_loadu_ps(bp + 4)));
            }
            _mm_storeu_ps(ci, acc0);
            _mm_storeu_ps(ci + 4, acc1);
        }
    }
    sgemmTail(a, b, c, m, k, n, accumulate, jt, j1);
}

void
gemmCePanelSse2(const uint8_t *row_mask, const uint8_t *nibbles,
                int64_t m, int64_t r, const float *__restrict basis,
                int64_t n, const float *__restrict lut,
                float *__restrict out, int64_t j0, int64_t j1)
{
    int64_t nz_seen = 0;
    for (int64_t row = 0; row < m; ++row) {
        float *crow = out + row * n;
        if (!ceRowSet(row_mask, row)) {
            std::fill(crow + j0, crow + j1, 0.0f);
            continue;
        }
        const int64_t code0 = nz_seen * r;
        ++nz_seen;
        int64_t jt = j0;
        for (; jt + kTile <= j1; jt += kTile) {
            __m128 acc0 = _mm_setzero_ps();
            __m128 acc1 = _mm_setzero_ps();
            const float *bp = basis + jt;
            for (int64_t p = 0; p < r; ++p, bp += n) {
                const float av = lut[nibbleAt(nibbles, code0 + p)];
                if (av == 0.0f)
                    continue;
                const __m128 va = _mm_set1_ps(av);
                acc0 = _mm_add_ps(acc0,
                                  _mm_mul_ps(va, _mm_loadu_ps(bp)));
                acc1 = _mm_add_ps(acc1,
                                  _mm_mul_ps(va, _mm_loadu_ps(bp + 4)));
            }
            _mm_storeu_ps(crow + jt, acc0);
            _mm_storeu_ps(crow + jt + 4, acc1);
        }
        for (; jt < j1; ++jt) {
            float acc = 0.0f;
            for (int64_t p = 0; p < r; ++p) {
                const float av = lut[nibbleAt(nibbles, code0 + p)];
                if (av != 0.0f)
                    acc += av * basis[p * n + jt];
            }
            crow[jt] = acc;
        }
    }
}

/** Load k in [1, 4] floats into the low lanes (the rest zero). */
inline __m128
loadCols(const float *p, int64_t k)
{
    switch (k) {
    case 1:
        return _mm_load_ss(p);
    case 2:
        return _mm_loadl_pi(_mm_setzero_ps(), (const __m64 *)p);
    case 3:
        return _mm_movelh_ps(
            _mm_loadl_pi(_mm_setzero_ps(), (const __m64 *)p),
            _mm_load_ss(p + 2));
    default:
        return _mm_loadu_ps(p);
    }
}

/** Store the low k in [1, 4] lanes of v, and nothing past them. */
inline void
storeCols(float *p, __m128 v, int64_t k)
{
    switch (k) {
    case 1:
        _mm_store_ss(p, v);
        break;
    case 2:
        _mm_storel_pi((__m64 *)p, v);
        break;
    case 3:
        _mm_storel_pi((__m64 *)p, v);
        _mm_store_ss(p + 2, _mm_movehl_ps(v, v));
        break;
    default:
        _mm_storeu_ps(p, v);
    }
}

/** acc + va * b where va != 0, else acc untouched (the zero skip). */
inline __m128
ceStep(__m128 acc, __m128 va, __m128 skip, __m128 b)
{
    const __m128 sum = _mm_add_ps(acc, _mm_mul_ps(va, b));
    return _mm_or_ps(_mm_and_ps(skip, acc), _mm_andnot_ps(skip, sum));
}

/**
 * Small-n fused Ce-code body: one Ce row per step, its n <= 8 output
 * columns in two XMM (the second only when n > 4). Loads and stores
 * are cut to the row's n columns, and the zero-code skip is a
 * bitwise select that keeps the old accumulator.
 */
void
gemmCeSmallNSse2(const uint8_t *row_mask, const uint8_t *nibbles,
                 int64_t m, int64_t r, const float *__restrict basis,
                 int64_t n, const float *__restrict lut, float *out,
                 float *last_row)
{
    const int64_t n0 = std::min<int64_t>(n, 4), n1 = n - n0;
    const __m128 zero = _mm_setzero_ps();
    auto store = [&](float *crow, __m128 lo, __m128 hi) {
        storeCols(crow, lo, n0);
        if (n1 > 0)
            storeCols(crow + 4, hi, n1);
    };
    forEachCeRow(
        row_mask, m, r, n, out, last_row,
        [&](float *crow) { store(crow, zero, zero); },
        [&](float *crow, int64_t code) {
            __m128 acc0 = zero, acc1 = zero;
            const float *bp = basis;
            for (int64_t p = 0; p < r; ++p, bp += n) {
                const __m128 va =
                    _mm_set1_ps(lut[nibbleAt(nibbles, code + p)]);
                const __m128 skip = _mm_cmpeq_ps(va, zero);
                acc0 = ceStep(acc0, va, skip, loadCols(bp, n0));
                if (n1 > 0)
                    acc1 = ceStep(acc1, va, skip, loadCols(bp + 4, n1));
            }
            store(crow, acc0, acc1);
        });
}

const KernelOps kSse2Ops{sgemmPanelSse2, gemmCePanelSse2, gemmCeSmallNSse2,
                         gemmRowBiasDPanelScalar};

} // namespace

const KernelOps *
sse2Ops()
{
    return &kSse2Ops;
}

} // namespace detail
} // namespace kernels
} // namespace se

#else  // !__SSE2__

namespace se {
namespace kernels {
namespace detail {

const KernelOps *
sse2Ops()
{
    return nullptr;
}

} // namespace detail
} // namespace kernels
} // namespace se

#endif
