#include "core/ce_basis.hh"

#include <cstring>
#include <vector>

#include "base/logging.hh"

namespace se {
namespace core {

namespace {

/**
 * The rows at width N, or at the runtime width n when N is 0. Every
 * conv and FC piece is 3 or 4 wide, so at those two widths a row's
 * chains live in one SIMD register and each live term is one multiply
 * and one add across it.
 */
template <int64_t N>
void
rowsAtWidth(const float *ce, const float *basis, int64_t m, int64_t r,
            int64_t n_rt, float *out, int64_t last_cols)
{
    const int64_t n = N ? N : n_rt;
    constexpr int64_t kStackCols = N ? N : 16;
    float stack[kStackCols];
    std::vector<float> heap(N == 0 && n > kStackCols ? (size_t)n : 0);
    float *acc = heap.empty() ? stack : heap.data();
    for (int64_t i = 0; i < m; ++i) {
        const float *a = ce + i * r;
        for (int64_t j = 0; j < n; ++j)
            acc[j] = 0.0f;
        for (int64_t p = 0; p < r; ++p) {
            const float av = a[p];
            if (av == 0.0f)
                continue;
            const float *bp = basis + p * n;
            for (int64_t j = 0; j < n; ++j)
                acc[j] += av * bp[j];
        }
        const int64_t cols = i + 1 < m ? n : last_cols;
        std::memcpy(out + i * n, acc, (size_t)cols * sizeof(float));
    }
}

} // namespace

void
ceBasisRows(const float *ce, const float *basis, int64_t m, int64_t r,
            int64_t n, float *out, int64_t last_cols)
{
    SE_ASSERT(last_cols >= 0 && last_cols <= n,
              "ceBasisRows: last row keeps ", last_cols, " of ", n,
              " columns");
    switch (n) {
    case 3: return rowsAtWidth<3>(ce, basis, m, r, n, out, last_cols);
    case 4: return rowsAtWidth<4>(ce, basis, m, r, n, out, last_cols);
    default: return rowsAtWidth<0>(ce, basis, m, r, n, out, last_cols);
    }
}

} // namespace core
} // namespace se
