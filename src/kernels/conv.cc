#include "kernels/conv.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "kernels/gemm.hh"
#include "kernels/im2col.hh"
#include "kernels/scratch.hh"

namespace se {
namespace kernels {

namespace {

/**
 * True when every in-image tap of output (e, f) multiplies to -0:
 * x points at the group's first input channel of one sample, wm at
 * the output channel's filter.
 */
bool
realTapsAllNegZero(const float *x, const float *wm, const ConvSpec &sp,
                   int64_t ih, int64_t iw, int64_t e, int64_t f)
{
    const int64_t k = sp.kern;
    for (int64_t ci = 0; ci < sp.inCh / sp.groups; ++ci)
        for (int64_t kr = 0; kr < k; ++kr) {
            const int64_t r = e * sp.stride + kr * sp.dil - sp.pad;
            if (r < 0 || r >= ih)
                continue;
            for (int64_t ks = 0; ks < k; ++ks) {
                const int64_t c = f * sp.stride + ks * sp.dil - sp.pad;
                if (c < 0 || c >= iw)
                    continue;
                const double p = (double)wm[(ci * k + kr) * k + ks] *
                                 x[(ci * ih + r) * iw + c];
                if (p != 0.0 || !std::signbit(p))
                    return false;
            }
        }
    return true;
}

/**
 * The reference loop skips padding taps; the GEMM adds w * 0 for
 * them. That changes a result only when a -0 bias keeps the chain at
 * -0 across every real tap and a padding product of +0 turns it to
 * +0. Put those outputs back to -0.
 */
void
restoreNegZeroBias(const float *x, const float *w, const float *bias,
                   const ConvSpec &sp, int64_t n, int64_t ih,
                   int64_t iw, int64_t oh, int64_t ow, float *y)
{
    const int64_t cpg = sp.inCh / sp.groups;
    const int64_t mpg = sp.outCh / sp.groups;
    for (int64_t m = 0; m < sp.outCh; ++m) {
        if (bias[m] != 0.0f || !std::signbit(bias[m]))
            continue;
        const float *wm = w + m * cpg * sp.kern * sp.kern;
        for (int64_t b = 0; b < n; ++b) {
            const float *xg =
                x + (b * sp.inCh + (m / mpg) * cpg) * ih * iw;
            float *ym = y + (b * sp.outCh + m) * oh * ow;
            for (int64_t e = 0; e < oh; ++e)
                for (int64_t f = 0; f < ow; ++f) {
                    float &v = ym[e * ow + f];
                    if (v == 0.0f && !std::signbit(v) &&
                        realTapsAllNegZero(xg, wm, sp, ih, iw, e, f))
                        v = -0.0f;
                }
        }
    }
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
                  const ConvSpec &sp)
{
    SE_ASSERT(sp.kern >= 1 && sp.stride >= 1 && sp.dil >= 1 &&
                  sp.pad >= 0 && sp.groups >= 1,
              "conv geometry kernel ", sp.kern, " stride ", sp.stride,
              " dilation ", sp.dil, " groups ", sp.groups,
              " pad ", sp.pad, ": each must be >= 1, pad >= 0");
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
    const PaddedWindow win{ih + 2 * sp.pad, iw + 2 * sp.pad, sp.kern,
                           sp.stride,        sp.dil,          oh,
                           ow};
    const int64_t plane = win.hp * win.wp;
    const int64_t in_floats = sp.inCh * plane;

    Tensor y({n, sp.outCh, oh, ow});
    if (n == 0)
        return y;
    // Stride 1 with an even output width: each column pair is two
    // adjacent taps of one input row, so the panel reads the padded
    // input itself. Other shapes lower the chunk onto a column matrix.
    const bool direct = sp.stride == 1 && ow % 2 == 0;
    // Samples per chunk, and the chunk's staging: the panel offsets,
    // the padded input and the column matrix.
    const int64_t per =
        std::min(n, (kConvFoldCols + cols - 1) / cols);
    const int64_t max_nc = per * cols;
    const int64_t pad_floats = sp.pad > 0 ? per * in_floats : 0;
    ScratchArena &arena = threadScratch();
    int64_t *b_row =
        arena.offsets(patch + (max_nc + 1) / 2 + max_nc);
    int64_t *b_pair = b_row + patch;
    int64_t *c_col = b_pair + (max_nc + 1) / 2;
    float *xp =
        arena.buffer(pad_floats + (direct ? 0 : patch * max_nc));
    float *col = xp + pad_floats;

    // Column j = (sample s, output position q) lands at y's
    // (s, channel, q), channel rows cols apart.
    for (int64_t s = 0, j = 0; s < per; ++s)
        for (int64_t q = 0; q < cols; ++q, ++j)
            c_col[j] = s * sp.outCh * cols + q;
    if (direct) {
        for (int64_t ci = 0; ci < cpg; ++ci)
            for (int64_t kr = 0; kr < sp.kern; ++kr)
                for (int64_t ks = 0; ks < sp.kern; ++ks)
                    b_row[(ci * sp.kern + kr) * sp.kern + ks] =
                        ci * plane + (kr * win.wp + ks) * sp.dil;
        int64_t *pair = b_pair;
        for (int64_t s = 0; s < per; ++s)
            for (int64_t e = 0; e < oh; ++e)
                for (int64_t f = 0; f < ow; f += 2)
                    *pair++ = s * in_floats + e * win.wp + f;
    } else {  // a dense column matrix, its rows set per chunk
        for (int64_t j = 0; j < max_nc; j += 2)
            b_pair[j / 2] = j;
    }

    const float *xd = x.data();
    const float *wd = w.data();
    const float *bd = bias ? bias->data() : nullptr;
    float *yd = y.data();
    for (int64_t b0 = 0; b0 < n; b0 += per) {
        const int64_t ns = std::min(per, n - b0);
        const int64_t nc = ns * cols;
        const float *src = xd + b0 * sp.inCh * ih * iw;
        if (sp.pad > 0) {
            padSamples(src, ns, sp.inCh, ih, iw, sp.pad, xp);
            src = xp;
        }
        if (!direct)  // the column matrix's rows are nc apart
            for (int64_t p = 0; p < patch; ++p)
                b_row[p] = p * nc;
        for (int64_t g = 0; g < sp.groups; ++g) {
            const float *bg = src + g * cpg * plane;
            if (!direct) {
                im2col(bg, cpg, ns, in_floats, win, col);
                bg = col;
            }
            const DChainOperands op{bg, b_row, b_pair,
                                    yd + (b0 * sp.outCh + g * mpg) * cols,
                                    cols, c_col,
                                    bd ? bd + g * mpg : nullptr};
            gemmDChain(wd + g * mpg * patch, op, mpg, patch, nc);
        }
    }
    if (bd && sp.pad > 0)
        restoreNegZeroBias(xd, wd, bd, sp, n, ih, iw, oh, ow, yd);
    return y;
}

} // namespace kernels
} // namespace se
