/**
 * @file
 * The dense Ce*B row kernel: the one float chain every dense install
 * of a SmartExchange piece runs (SeMatrix::reconstruct, the
 * decomposition's reconRelError, finishCompression's write-back and
 * the serve session's Dense rebuild).
 *
 * Per output element: +0, then a*b added in ascending k with a round
 * after every add, zero entries of Ce skipped. That is the sequence of
 * the scalar sgemm panel and of tests/reference's matmul, so the
 * result is bit-identical to both at every ISA with no dispatch. The
 * TU is compiled without contraction (tools/lint/check_fma.sh).
 */

#ifndef SE_CORE_CE_BASIS_HH
#define SE_CORE_CE_BASIS_HH

#include <cstdint>

namespace se {
namespace core {

/**
 * out = ce (m x r) * basis (r x n), row i at out + i * n. Every row is
 * n wide except the last, which keeps only its first `last_cols`
 * (0 <= last_cols <= n) columns: an FC piece's zero-padded tail would
 * otherwise spill into the next weight row. m may be 0.
 */
void ceBasisRows(const float *ce, const float *basis, int64_t m,
                 int64_t r, int64_t n, float *out, int64_t last_cols);

} // namespace core
} // namespace se

#endif // SE_CORE_CE_BASIS_HH
