#include "kernels/conv.hh"

#include "base/logging.hh"
#include "kernels/gemm.hh"
#include "kernels/im2col.hh"

namespace se {
namespace kernels {

int64_t
windowOutExtent(int64_t in, int64_t pad, int64_t kext, int64_t stride)
{
    SE_ASSERT(in + 2 * pad >= kext, "input extent ", in, " with pad ",
              pad, " is smaller than the ", kext, "-wide window");
    return (in + 2 * pad - kext) / stride + 1;
}

Tensor
conv2dForwardGemm(const Tensor &x, const Tensor &w, const Tensor *bias,
                  const ConvSpec &sp, ScratchArena &scratch)
{
    SE_ASSERT(x.ndim() == 4 && x.dim(1) == sp.inCh,
              "conv input shape mismatch");
    const int64_t n = x.dim(0), ih = x.dim(2), iw = x.dim(3);
    const int64_t kext = sp.dil * (sp.kern - 1) + 1;
    const int64_t oh = windowOutExtent(ih, sp.pad, kext, sp.stride);
    const int64_t ow = windowOutExtent(iw, sp.pad, kext, sp.stride);
    const int64_t cpg = sp.inCh / sp.groups;
    const int64_t mpg = sp.outCh / sp.groups;
    const int64_t patch = cpg * sp.kern * sp.kern;
    const int64_t cols = oh * ow;

    Tensor y({n, sp.outCh, oh, ow});
    float *col = scratch.colBuffer(patch * cols);
    const float *xd = x.data();
    const float *wd = w.data();
    const float *bd = bias ? bias->data() : nullptr;
    float *yd = y.data();

    for (int64_t b = 0; b < n; ++b) {
        for (int64_t g = 0; g < sp.groups; ++g) {
            im2col(xd + ((b * sp.inCh + g * cpg) * ih * iw), cpg, ih,
                   iw, sp.kern, sp.kern, sp.stride, sp.pad, sp.dil, oh,
                   ow, col);
            gemmRowBiasD(wd + g * mpg * patch, col,
                         bd ? bd + g * mpg : nullptr,
                         yd + ((b * sp.outCh + g * mpg) * cols), mpg,
                         patch, cols);
        }
    }
    return y;
}

} // namespace kernels
} // namespace se
