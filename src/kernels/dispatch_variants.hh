/**
 * @file
 * Internal registry hooks between dispatch.cc and the per-ISA
 * translation units. Each variant TU is compiled unconditionally but
 * returns nullptr when its ISA was not available at compile time
 * (non-x86 target, or the compiler lacking -mavx2), so the dispatch
 * table degrades gracefully instead of breaking the link.
 */

#ifndef SE_KERNELS_DISPATCH_VARIANTS_HH
#define SE_KERNELS_DISPATCH_VARIANTS_HH

#include "kernels/dispatch.hh"

namespace se {
namespace kernels {
namespace detail {

/** SSE2 variant table, or nullptr when not compiled in. */
const KernelOps *sse2Ops();

/** AVX2 variant table, or nullptr when not compiled in. */
const KernelOps *avx2Ops();

/** Scalar KernelOps::gemmRowBiasDPanel, shared by the SSE2 table. */
void gemmRowBiasDPanelScalar(const float *a, const float *b,
                             const float *row_bias,
                             const float *col_bias, float *c,
                             int64_t m, int64_t k, int64_t n,
                             int64_t j0, int64_t j1);

} // namespace detail
} // namespace kernels
} // namespace se

#endif // SE_KERNELS_DISPATCH_VARIANTS_HH
