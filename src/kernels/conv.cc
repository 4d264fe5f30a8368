#include "kernels/conv.hh"

#include "base/logging.hh"
#include "kernels/gemm.hh"
#include "kernels/im2col.hh"

namespace se {
namespace kernels {

namespace {

/** Derived per-call geometry shared by forward and backward. */
struct ConvDims
{
    int64_t n, h, w, oh, ow, cpg, mpg, patch, cols;
};

ConvDims
deriveDims(const Tensor &x, const ConvSpec &sp)
{
    SE_ASSERT(x.ndim() == 4 && x.dim(1) == sp.inCh,
              "conv input shape mismatch");
    ConvDims d;
    d.n = x.dim(0);
    d.h = x.dim(2);
    d.w = x.dim(3);
    const int64_t kext = sp.dil * (sp.kern - 1) + 1;
    d.oh = windowOutExtent(d.h, sp.pad, kext, sp.stride);
    d.ow = windowOutExtent(d.w, sp.pad, kext, sp.stride);
    d.cpg = sp.inCh / sp.groups;
    d.mpg = sp.outCh / sp.groups;
    d.patch = d.cpg * sp.kern * sp.kern;
    d.cols = d.oh * d.ow;
    return d;
}

} // namespace

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
    const ConvDims d = deriveDims(x, sp);
    Tensor y({d.n, sp.outCh, d.oh, d.ow});
    float *col = scratch.colBuffer(d.patch * d.cols);
    const float *xd = x.data();
    const float *wd = w.data();
    const float *bd = bias ? bias->data() : nullptr;
    float *yd = y.data();

    for (int64_t b = 0; b < d.n; ++b) {
        for (int64_t g = 0; g < sp.groups; ++g) {
            im2col(xd + ((b * sp.inCh + g * d.cpg) * d.h * d.w), d.cpg,
                   d.h, d.w, sp.kern, sp.kern, sp.stride, sp.pad,
                   sp.dil, d.oh, d.ow, col);
            gemmRowBiasD(wd + g * d.mpg * d.patch, col,
                         bd ? bd + g * d.mpg : nullptr,
                         yd + ((b * sp.outCh + g * d.mpg) * d.cols),
                         d.mpg, d.patch, d.cols);
        }
    }
    return y;
}

void
conv2dBackwardGemm(const Tensor &x, const Tensor &w, const Tensor &gy,
                   const ConvSpec &sp, ScratchArena &scratch,
                   Tensor &gradW, Tensor *gradB, Tensor &gx)
{
    const ConvDims d = deriveDims(x, sp);
    SE_ASSERT(gy.dim(2) == d.oh && gy.dim(3) == d.ow,
              "conv backward gy shape mismatch");
    float *col = scratch.colBuffer(d.patch * d.cols);
    float *cg = scratch.gradBuffer(d.patch * d.cols);
    // One transposed weight block per group, hoisted out of the batch
    // loop (weights do not change inside one backward pass).
    float *wt = scratch.transposeBuffer(sp.groups * d.patch * d.mpg);
    const float *wd = w.data();
    for (int64_t g = 0; g < sp.groups; ++g)
        transposeF(wd + g * d.mpg * d.patch, d.mpg, d.patch,
                   wt + g * d.patch * d.mpg);

    const float *xd = x.data();
    const float *gyd = gy.data();
    float *gwd = gradW.data();
    float *gxd = gx.data();

    for (int64_t b = 0; b < d.n; ++b) {
        for (int64_t g = 0; g < sp.groups; ++g) {
            const float *gyg =
                gyd + ((b * sp.outCh + g * d.mpg) * d.cols);

            if (gradB) {
                float *gbd = gradB->data() + g * d.mpg;
                for (int64_t mo = 0; mo < d.mpg; ++mo) {
                    float acc = gbd[mo];
                    const float *row = gyg + mo * d.cols;
                    for (int64_t l = 0; l < d.cols; ++l)
                        acc += row[l];
                    gbd[mo] = acc;
                }
            }

            im2col(xd + ((b * sp.inCh + g * d.cpg) * d.h * d.w), d.cpg,
                   d.h, d.w, sp.kern, sp.kern, sp.stride, sp.pad,
                   sp.dil, d.oh, d.ow, col);
            // gradW_g += gy_g * col^T: ascending output positions,
            // continuing each element's float chain across batches —
            // the legacy accumulation order.
            sgemmABt(gyg, col, gwd + g * d.mpg * d.patch, d.mpg,
                     d.cols, d.patch, /*accumulate=*/true);

            // gx: column-space gradient, then fold back.
            sgemm(wt + g * d.patch * d.mpg, gyg, cg, d.patch, d.mpg,
                  d.cols, /*accumulate=*/false);
            col2imAdd(cg, d.cpg, d.h, d.w, sp.kern, sp.kern, sp.stride,
                      sp.pad, sp.dil, d.oh, d.ow,
                      gxd + ((b * sp.inCh + g * d.cpg) * d.h * d.w));
        }
    }
}

} // namespace kernels
} // namespace se
