#include "nn/layers.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "base/random.hh"
#include "kernels/conv.hh"
#include "kernels/linear.hh"

namespace se {
namespace nn {

// ---------------------------------------------------------------- Conv2d

Conv2d::Conv2d(int64_t in_ch, int64_t out_ch, int64_t kernel,
               int64_t stride, int64_t pad, int64_t groups, Rng &rng,
               bool bias, int64_t dilation)
    : inCh(in_ch), outCh(out_ch), kern(kernel), strd(stride), pad_(pad),
      grps(groups), dil(dilation), hasBias(bias)
{
    SE_ASSERT(kernel >= 1 && stride >= 1 && dilation >= 1 &&
                  groups >= 1 && pad >= 0,
              "conv geometry kernel ", kernel, " stride ", stride,
              " dilation ", dilation, " groups ", groups, " pad ", pad,
              ": each must be >= 1, pad >= 0");
    SE_ASSERT(in_ch % groups == 0 && out_ch % groups == 0,
              "channels not divisible by groups");
    const int64_t cpg = in_ch / groups;
    weight = Tensor({out_ch, cpg, kernel, kernel});
    gradW = Tensor(weight.shape());
    // He initialization.
    const float std_dev =
        std::sqrt(2.0f / (float)(cpg * kernel * kernel));
    rng.fillGaussian(weight.data(), weight.size(), 0.0f, std_dev);
    if (hasBias) {
        bias_ = Tensor({out_ch});
        gradB = Tensor({out_ch});
    }
}

Tensor
Conv2d::forward(const Tensor &x, bool train)
{
    if (train)
        cachedX = x;
    const kernels::ConvSpec spec{inCh, outCh, kern, strd,
                                 pad_,  grps,  dil};
    return kernels::conv2dForwardGemm(x, weight,
                                      hasBias ? &bias_ : nullptr, spec);
}

Tensor
Conv2d::backward(const Tensor &gy)
{
    SE_ASSERT(!cachedX.empty(), "backward without cached forward");
    const Tensor &x = cachedX;
    const int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
    const int64_t oh = gy.dim(2), ow = gy.dim(3);
    const int64_t cpg = inCh / grps;
    const int64_t mpg = outCh / grps;

    Tensor gx(x.shape());
    for (int64_t b = 0; b < n; ++b) {
        for (int64_t g = 0; g < grps; ++g) {
            for (int64_t mo = 0; mo < mpg; ++mo) {
                const int64_t m = g * mpg + mo;
                for (int64_t e = 0; e < oh; ++e) {
                    for (int64_t f = 0; f < ow; ++f) {
                        const float gv = gy.at(b, m, e, f);
                        if (gv == 0.0f)
                            continue;
                        if (hasBias)
                            gradB[m] += gv;
                        for (int64_t ci = 0; ci < cpg; ++ci) {
                            const int64_t c = g * cpg + ci;
                            for (int64_t kr = 0; kr < kern; ++kr) {
                                const int64_t ih =
                                    e * strd + kr * dil - pad_;
                                if (ih < 0 || ih >= h)
                                    continue;
                                for (int64_t ks = 0; ks < kern; ++ks) {
                                    const int64_t iw =
                                        f * strd + ks * dil - pad_;
                                    if (iw < 0 || iw >= w)
                                        continue;
                                    gradW.at(m, ci, kr, ks) +=
                                        gv * x.at(b, c, ih, iw);
                                    gx.at(b, c, ih, iw) +=
                                        gv * weight.at(m, ci, kr, ks);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    return gx;
}

std::vector<Param>
Conv2d::params()
{
    std::vector<Param> p{{&weight, &gradW, "conv.weight"}};
    if (hasBias)
        p.push_back({&bias_, &gradB, "conv.bias"});
    return p;
}

// ---------------------------------------------------------------- Linear

Linear::Linear(int64_t in_features, int64_t out_features, Rng &rng,
               bool bias)
    : inF(in_features), outF(out_features), hasBias(bias)
{
    weight = Tensor({outF, inF});
    gradW = Tensor(weight.shape());
    const float std_dev = std::sqrt(2.0f / (float)inF);
    rng.fillGaussian(weight.data(), weight.size(), 0.0f, std_dev);
    if (hasBias) {
        bias_ = Tensor({outF});
        gradB = Tensor({outF});
    }
}

Tensor
Linear::forward(const Tensor &x, bool train)
{
    if (train)
        cachedX = x;
    return kernels::linearForwardGemm(x, weight,
                                      hasBias ? &bias_ : nullptr);
}

Tensor
Linear::backward(const Tensor &gy)
{
    SE_ASSERT(!cachedX.empty(), "backward without cached forward");
    Tensor gx(cachedX.shape());
    kernels::linearBackwardGemm(cachedX, weight, gy, gradW,
                                hasBias ? &gradB : nullptr, gx);
    return gx;
}

std::vector<Param>
Linear::params()
{
    std::vector<Param> p{{&weight, &gradW, "linear.weight"}};
    if (hasBias)
        p.push_back({&bias_, &gradB, "linear.bias"});
    return p;
}

// ----------------------------------------------------------- BatchNorm2d

BatchNorm2d::BatchNorm2d(int64_t channels, float eps, float momentum)
    : ch(channels), eps(eps), momentum(momentum)
{
    gamma = Tensor({ch}, 1.0f);
    beta = Tensor({ch});
    gradGamma = Tensor({ch});
    gradBeta = Tensor({ch});
    runningMean = Tensor({ch});
    runningVar = Tensor({ch}, 1.0f);
}

Tensor
BatchNorm2d::forward(const Tensor &x, bool train)
{
    SE_ASSERT(x.ndim() == 4 && x.dim(1) == ch, "bn input shape mismatch");
    const int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
    const int64_t count = n * h * w;
    Tensor y(x.shape());
    if (!train) {
        evalPass<false>(x, y, 0.0f);
        return y;
    }
    cachedXhat = Tensor(x.shape());
    cachedInvStd.assign((size_t)ch, 0.0);
    cachedCount = count;

    for (int64_t c = 0; c < ch; ++c) {
        double s = 0.0, s2 = 0.0;
        for (int64_t b = 0; b < n; ++b)
            for (int64_t i = 0; i < h; ++i)
                for (int64_t j = 0; j < w; ++j) {
                    double v = x.at(b, c, i, j);
                    s += v;
                    s2 += v * v;
                }
        const double mean = s / (double)count;
        const double var = std::max(s2 / (double)count - mean * mean, 0.0);
        runningMean[c] = (1.0f - momentum) * runningMean[c] +
                         momentum * (float)mean;
        runningVar[c] = (1.0f - momentum) * runningVar[c] +
                        momentum * (float)var;
        const double inv_std = 1.0 / std::sqrt(var + eps);
        cachedInvStd[(size_t)c] = inv_std;
        for (int64_t b = 0; b < n; ++b)
            for (int64_t i = 0; i < h; ++i)
                for (int64_t j = 0; j < w; ++j) {
                    const double xh =
                        ((double)x.at(b, c, i, j) - mean) * inv_std;
                    cachedXhat.at(b, c, i, j) = (float)xh;
                    y.at(b, c, i, j) =
                        (float)(gamma[c] * xh + beta[c]);
                }
    }
    return y;
}

void
BatchNorm2d::evalReluInPlace(Tensor &x, float relu_max) const
{
    evalPass<true>(x, x, relu_max);
}

template <bool Relu>
void
BatchNorm2d::evalPass(const Tensor &x, Tensor &y, float relu_max) const
{
    SE_ASSERT(x.ndim() == 4 && x.dim(1) == ch, "bn input shape mismatch");
    const int64_t n = x.dim(0), plane = x.dim(2) * x.dim(3);
    // The clamp as a select; with no clamp, hi = +Inf keeps every
    // value.
    const float hi = relu_max > 0.0f
                         ? relu_max
                         : std::numeric_limits<float>::infinity();
    for (int64_t c = 0; c < ch; ++c) {
        // The training loop's expression, term for term, on the
        // running stats.
        const double mean = runningMean[c], var = runningVar[c];
        const double inv_std = 1.0 / std::sqrt(var + eps);
        const double g = gamma[c], bt = beta[c];
        auto apply = [&](float v) {
            const float bn =
                (float)(g * (((double)v - mean) * inv_std) + bt);
            if (!Relu)
                return bn;
            // ReLU, bn > 0 ? bn : +0, as a bit mask: compilers branch
            // on that select, and the branch mispredicts on real
            // activations.
            uint32_t bits;
            std::memcpy(&bits, &bn, sizeof bits);
            bits &= 0u - (uint32_t)(bn > 0.0f);
            float r;
            std::memcpy(&r, &bits, sizeof r);
            return r > hi ? hi : r;
        };
        for (int64_t b = 0; b < n; ++b) {
            const float *u = x.data() + (b * ch + c) * plane;
            float *v = y.data() + (b * ch + c) * plane;
            int64_t i = 0;
            // Fixed blocks of 4, which the compiler vectorizes.
            for (; i + 4 <= plane; i += 4)
                for (int t = 0; t < 4; ++t)
                    v[i + t] = apply(u[i + t]);
            for (; i < plane; ++i)
                v[i] = apply(u[i]);
        }
    }
}

Tensor
BatchNorm2d::backward(const Tensor &gy)
{
    SE_ASSERT(!cachedXhat.empty(), "bn backward without forward");
    const int64_t n = gy.dim(0), h = gy.dim(2), w = gy.dim(3);
    const double count = (double)cachedCount;
    Tensor gx(gy.shape());

    for (int64_t c = 0; c < ch; ++c) {
        double sum_gy = 0.0, sum_gy_xhat = 0.0;
        for (int64_t b = 0; b < n; ++b)
            for (int64_t i = 0; i < h; ++i)
                for (int64_t j = 0; j < w; ++j) {
                    const double g = gy.at(b, c, i, j);
                    sum_gy += g;
                    sum_gy_xhat += g * cachedXhat.at(b, c, i, j);
                }
        gradGamma[c] += (float)sum_gy_xhat;
        gradBeta[c] += (float)sum_gy;
        const double inv_std = cachedInvStd[(size_t)c];
        const double gmma = gamma[c];
        for (int64_t b = 0; b < n; ++b)
            for (int64_t i = 0; i < h; ++i)
                for (int64_t j = 0; j < w; ++j) {
                    const double g = gy.at(b, c, i, j);
                    const double xh = cachedXhat.at(b, c, i, j);
                    gx.at(b, c, i, j) = (float)(gmma * inv_std *
                        (g - sum_gy / count - xh * sum_gy_xhat / count));
                }
    }
    return gx;
}

std::vector<Param>
BatchNorm2d::params()
{
    return {{&gamma, &gradGamma, "bn.gamma"},
            {&beta, &gradBeta, "bn.beta"}};
}

// ------------------------------------------------------------------ ReLU

Tensor
ReLU::forward(const Tensor &x, bool train)
{
    Tensor y = x;
    if (train)
        mask = Tensor(x.shape());
    for (int64_t i = 0; i < y.size(); ++i) {
        float v = y[i];
        float out = v > 0.0f ? v : 0.0f;
        if (maxVal > 0.0f && out > maxVal)
            out = maxVal;
        if (train)
            mask[i] = (v > 0.0f && (maxVal <= 0.0f || v < maxVal))
                          ? 1.0f : 0.0f;
        y[i] = out;
    }
    return y;
}

Tensor
ReLU::backward(const Tensor &gy)
{
    Tensor gx = gy;
    for (int64_t i = 0; i < gx.size(); ++i)
        gx[i] *= mask[i];
    return gx;
}

// --------------------------------------------------------------- Sigmoid

Tensor
Sigmoid::forward(const Tensor &x, bool train)
{
    Tensor y = x;
    y.apply([](float v) { return 1.0f / (1.0f + std::exp(-v)); });
    if (train)
        cachedY = y;
    return y;
}

Tensor
Sigmoid::backward(const Tensor &gy)
{
    Tensor gx = gy;
    for (int64_t i = 0; i < gx.size(); ++i)
        gx[i] *= cachedY[i] * (1.0f - cachedY[i]);
    return gx;
}

// ------------------------------------------------------------- MaxPool2d

namespace {

/**
 * Eval MaxPool2d over `planes` (h x w) planes. It keeps no argmax, so
 * each tap is the training loop's update without its index, as a
 * select: best = v > best ? v : best, one maxss. That is the loop's
 * value bit for bit (a NaN tap never replaces best, a ±0 tie keeps
 * the earlier tap) with no branch to mispredict on random taps. K > 0
 * fixes the kernel size at compile time; K == 0 reads it from kern.
 */
template <int K>
void
maxPoolEval(const float *x, float *y, int64_t planes, int64_t h,
            int64_t w, int64_t kern, int64_t strd, int64_t oh, int64_t ow)
{
    const int64_t k = K > 0 ? K : kern;
    for (int64_t pl = 0; pl < planes; ++pl)
        for (int64_t e = 0; e < oh; ++e)
            for (int64_t f = 0; f < ow; ++f) {
                const float *xt = x + (pl * h + e * strd) * w + f * strd;
                float best = xt[0];
                for (int64_t kr = 0; kr < k; ++kr)
                    for (int64_t ks = 0; ks < k; ++ks) {
                        const float v = xt[kr * w + ks];
                        best = v > best ? v : best;
                    }
                *y++ = best;
            }
}

} // namespace

MaxPool2d::MaxPool2d(int64_t kernel, int64_t stride)
    : kern(kernel), strd(stride)
{
    SE_ASSERT(kernel >= 1 && stride >= 1, "maxpool kernel ", kernel,
              " stride ", stride, ": each must be >= 1");
}

Tensor
MaxPool2d::forward(const Tensor &x, bool train)
{
    const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
    const int64_t oh = kernels::windowOutExtent(h, 0, kern, strd);
    const int64_t ow = kernels::windowOutExtent(w, 0, kern, strd);
    inShape = x.shape();
    Tensor y({n, c, oh, ow});
    const float *xd = x.data();
    if (!train) {
        // Every zoo net pools 2x2, so that size gets its own unrolled
        // instance.
        (kern == 2 ? maxPoolEval<2> : maxPoolEval<0>)(
            xd, y.data(), n * c, h, w, kern, strd, oh, ow);
        return y;
    }
    argmax.assign((size_t)y.size(), 0);
    int64_t oi = 0;
    for (int64_t b = 0; b < n; ++b)
        for (int64_t cc = 0; cc < c; ++cc)
            for (int64_t e = 0; e < oh; ++e)
                for (int64_t f = 0; f < ow; ++f, ++oi) {
                    // Seeded from the window's first tap, so the max
                    // and its index always come from this window.
                    const int64_t first =
                        ((b * c + cc) * h + e * strd) * w + f * strd;
                    float best = xd[first];
                    int64_t best_idx = first;
                    for (int64_t kr = 0; kr < kern; ++kr)
                        for (int64_t ks = 0; ks < kern; ++ks) {
                            const int64_t idx = first + kr * w + ks;
                            if (xd[idx] > best) {
                                best = xd[idx];
                                best_idx = idx;
                            }
                        }
                    y[oi] = best;
                    argmax[(size_t)oi] = best_idx;
                }
    return y;
}

Tensor
MaxPool2d::backward(const Tensor &gy)
{
    Tensor gx(inShape);
    for (int64_t i = 0; i < gy.size(); ++i)
        gx[argmax[(size_t)i]] += gy[i];
    return gx;
}

// --------------------------------------------------------- GlobalAvgPool

Tensor
GlobalAvgPool::forward(const Tensor &x, bool train)
{
    (void)train;
    const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
    inShape = x.shape();
    Tensor y({n, c, 1, 1});
    const double inv = 1.0 / (double)(h * w);
    for (int64_t b = 0; b < n; ++b)
        for (int64_t cc = 0; cc < c; ++cc) {
            double s = 0.0;
            for (int64_t i = 0; i < h; ++i)
                for (int64_t j = 0; j < w; ++j)
                    s += x.at(b, cc, i, j);
            y.at(b, cc, 0, 0) = (float)(s * inv);
        }
    return y;
}

Tensor
GlobalAvgPool::backward(const Tensor &gy)
{
    const int64_t h = inShape[2], w = inShape[3];
    Tensor gx(inShape);
    const float inv = 1.0f / (float)(h * w);
    for (int64_t b = 0; b < inShape[0]; ++b)
        for (int64_t cc = 0; cc < inShape[1]; ++cc) {
            const float g = gy.at(b, cc, 0, 0) * inv;
            for (int64_t i = 0; i < h; ++i)
                for (int64_t j = 0; j < w; ++j)
                    gx.at(b, cc, i, j) = g;
        }
    return gx;
}

// --------------------------------------------------------------- Flatten

Tensor
Flatten::forward(const Tensor &x, bool train)
{
    (void)train;
    inShape = x.shape();
    return x.reshaped({x.dim(0), x.size() / x.dim(0)});
}

Tensor
Flatten::backward(const Tensor &gy)
{
    return gy.reshaped(inShape);
}

// ------------------------------------------------------- UpsampleNearest

Tensor
UpsampleNearest::forward(const Tensor &x, bool train)
{
    (void)train;
    inShape = x.shape();
    const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
    Tensor y({n, c, h * fac, w * fac});
    for (int64_t b = 0; b < n; ++b)
        for (int64_t cc = 0; cc < c; ++cc)
            for (int64_t i = 0; i < h * fac; ++i)
                for (int64_t j = 0; j < w * fac; ++j)
                    y.at(b, cc, i, j) = x.at(b, cc, i / fac, j / fac);
    return y;
}

Tensor
UpsampleNearest::backward(const Tensor &gy)
{
    Tensor gx(inShape);
    const int64_t h = inShape[2], w = inShape[3];
    for (int64_t b = 0; b < inShape[0]; ++b)
        for (int64_t cc = 0; cc < inShape[1]; ++cc)
            for (int64_t i = 0; i < h * fac; ++i)
                for (int64_t j = 0; j < w * fac; ++j)
                    gx.at(b, cc, i / fac, j / fac) += gy.at(b, cc, i, j);
    return gx;
}

} // namespace nn
} // namespace se
