#include "kernels/im2col.hh"

#include <algorithm>
#include <cstring>

namespace se {
namespace kernels {

void
im2col(const float *x, int64_t c, int64_t h, int64_t w, int64_t r,
       int64_t s, int64_t stride, int64_t pad, int64_t dil, int64_t oh,
       int64_t ow, float *col)
{
    for (int64_t ci = 0; ci < c; ++ci) {
        const float *xc = x + ci * h * w;
        for (int64_t kr = 0; kr < r; ++kr) {
            for (int64_t ks = 0; ks < s; ++ks) {
                float *row = col + (((ci * r) + kr) * s + ks) * oh * ow;
                const int64_t woff = ks * dil - pad;
                for (int64_t e = 0; e < oh; ++e) {
                    const int64_t ih = e * stride + kr * dil - pad;
                    float *dst = row + e * ow;
                    if (ih < 0 || ih >= h) {
                        std::memset(dst, 0,
                                    (size_t)ow * sizeof(float));
                        continue;
                    }
                    const float *xr = xc + ih * w;
                    if (stride == 1) {
                        // Contiguous middle span; zero the pad edges.
                        const int64_t f0 =
                            std::max<int64_t>(0, -woff);
                        const int64_t f1 = std::min(ow, w - woff);
                        for (int64_t f = 0; f < std::min(f0, ow); ++f)
                            dst[f] = 0.0f;
                        if (f1 > f0)
                            std::memcpy(dst + f0, xr + f0 + woff,
                                        (size_t)(f1 - f0) *
                                            sizeof(float));
                        for (int64_t f = std::max(f1, (int64_t)0);
                             f < ow; ++f)
                            dst[f] = 0.0f;
                    } else {
                        for (int64_t f = 0; f < ow; ++f) {
                            const int64_t iw = f * stride + woff;
                            dst[f] = (iw >= 0 && iw < w) ? xr[iw]
                                                         : 0.0f;
                        }
                    }
                }
            }
        }
    }
}

} // namespace kernels
} // namespace se
