#include "kernels/im2col.hh"

#include <cstring>

namespace se {
namespace kernels {

namespace {

/**
 * dst[0, n) = src[0, n) for the short rows of a conv chunk (often 2
 * to 8 floats): four floats per fixed-size copy, which compiles to a
 * 16-byte move instead of a library call per row.
 */
inline void
copyRow(const float *src, int64_t n, float *dst)
{
    int64_t f = 0;
    for (; f + 4 <= n; f += 4)
        std::memcpy(dst + f, src + f, 4 * sizeof(float));
    for (; f < n; ++f)
        dst[f] = src[f];
}

} // namespace

void
padSamples(const float *x, int64_t ns, int64_t c, int64_t h, int64_t w,
           int64_t pad, float *xp)
{
    const int64_t wp = w + 2 * pad;
    const int64_t plane = (h + 2 * pad) * wp;
    // One bulk zero for every border, then the interior rows.
    std::memset(xp, 0, (size_t)(ns * c * plane) * sizeof(float));
    for (int64_t pl = 0; pl < ns * c; ++pl) {
        const float *src = x + pl * h * w;
        float *dst = xp + pl * plane + pad * wp + pad;
        for (int64_t i = 0; i < h; ++i, src += w, dst += wp)
            copyRow(src, w, dst);
    }
}

void
im2col(const float *xp, int64_t c, int64_t ns, int64_t sample_stride,
       const PaddedWindow &win, float *col)
{
    const int64_t plane = win.hp * win.wp;
    const int64_t k = win.kern, st = win.stride, ow = win.ow;
    const int64_t row_step = st * win.wp;
    for (int64_t ci = 0; ci < c; ++ci)
        for (int64_t kr = 0; kr < k; ++kr)
            for (int64_t ks = 0; ks < k; ++ks) {
                const float *tap =
                    xp + ci * plane + (kr * win.wp + ks) * win.dil;
                for (int64_t s = 0; s < ns; ++s) {
                    const float *src = tap + s * sample_stride;
                    for (int64_t e = 0; e < win.oh;
                         ++e, src += row_step, col += ow) {
                        if (st == 1) {
                            copyRow(src, ow, col);
                        } else {
                            for (int64_t f = 0; f < ow; ++f)
                                col[f] = src[f * st];
                        }
                    }
                }
            }
}

} // namespace kernels
} // namespace se
