/**
 * @file
 * Internal registry hooks between dispatch.cc and the AVX2 and
 * AVX-512 translation units. Both are compiled unconditionally but
 * return nullptr when their ISA was not available at compile time
 * (non-x86 target, the compiler lacking -mavx2, or a compiler without
 * GCC's target pragma), so dispatch degrades to a narrower table
 * instead of breaking the link.
 */

#ifndef SE_KERNELS_DISPATCH_VARIANTS_HH
#define SE_KERNELS_DISPATCH_VARIANTS_HH

#include <cstdint>

#include "kernels/dispatch.hh"

namespace se {
namespace kernels {
namespace detail {

// The helpers below are compiled into both variant TUs, each with its
// own ISA flags. Internal linkage keeps the linker from folding, say,
// the AVX2 TU's copy into the scalar table.
namespace {

/** Packed Ce code `idx` (two codes per byte, low nibble first). */
inline unsigned
nibbleAt(const uint8_t *nibbles, int64_t idx)
{
    return (nibbles[idx >> 1] >> ((idx & 1) << 2)) & 0xFu;
}

/**
 * The row walk of every gemmCeSmallN variant over an m-row piece whose
 * output rows are ld floats apart. Per 8-row mask byte, `zero_row(crow)` runs for each
 * clear row, then `set_row(crow, code)` for each set row in ascending
 * order, with `code` the index of its first of r packed codes. Row
 * m - 1 goes to `last_row` when it is non-null. Walking the bits of
 * each byte costs one loop exit per byte where a test per row would
 * mispredict on every random zero row.
 */
template <class ZeroRow, class SetRow>
inline void
forEachCeRow(const uint8_t *row_mask, int64_t m, int64_t r, int64_t ld,
             float *out, float *last_row, ZeroRow &&zero_row,
             SetRow &&set_row)
{
    auto rowOut = [&](int64_t row) {
        return last_row && row == m - 1 ? last_row : out + row * ld;
    };
    int64_t code = 0;  // first code of the next set row
    for (int64_t row0 = 0; row0 < m; row0 += 8) {
        const unsigned live =
            m - row0 >= 8 ? 0xFFu : (1u << (m - row0)) - 1u;
        const unsigned set = row_mask[row0 >> 3] & live;
        for (unsigned b = live & ~set; b; b &= b - 1)
            zero_row(rowOut(row0 + __builtin_ctz(b)));
        for (unsigned b = set; b; b &= b - 1, code += r)
            set_row(rowOut(row0 + __builtin_ctz(b)), code);
    }
}

} // namespace

/** AVX2 variant table, or nullptr when not compiled in. */
const KernelOps *avx2Ops();

/**
 * AVX-512 variant table, or nullptr when not compiled in. Its sgemm
 * and Ce-code bodies are avx2Ops()'s, so it needs the AVX2 tier too.
 */
const KernelOps *avx512Ops();

// Scalar reference panels. The AVX2 sgemm and double-chain panels run
// their remainder columns (fewer than one register tile) through them.

/** Scalar KernelOps::sgemmPanel. */
void sgemmPanelScalar(const float *a, const float *b, float *c,
                      int64_t m, int64_t k, int64_t n, bool accumulate,
                      int64_t j0, int64_t j1);

/** Scalar KernelOps::gemmDChainPanel. */
void gemmDChainPanelScalar(const float *a, const DChainOperands &op,
                           int64_t m, int64_t k, int64_t j0, int64_t j1);

} // namespace detail
} // namespace kernels
} // namespace se

#endif // SE_KERNELS_DISPATCH_VARIANTS_HH
