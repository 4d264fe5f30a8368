#include "nn/blocks.hh"

#include "base/random.hh"

namespace se {
namespace nn {

// ------------------------------------------------------------ Sequential

Sequential::Sequential(const Sequential &other) : Layer(other)
{
    children.reserve(other.children.size());
    for (const auto &l : other.children)
        children.push_back(l->clone());
}

LayerPtr
Sequential::clone() const
{
    return std::make_unique<Sequential>(*this);
}

Tensor
Sequential::forward(const Tensor &x, bool train)
{
    Tensor h = x;
    for (size_t i = 0; i < children.size(); ++i) {
        // Eval mode: a BatchNorm2d and the ReLU after it are one pass
        // over h in place.
        auto *bn = train ? nullptr
                         : dynamic_cast<BatchNorm2d *>(children[i].get());
        auto *relu = bn && i + 1 < children.size()
                         ? dynamic_cast<ReLU *>(children[i + 1].get())
                         : nullptr;
        if (relu) {
            bn->evalReluInPlace(h, relu->clampMax());
            ++i;
        } else {
            h = children[i]->forward(h, train);
        }
    }
    return h;
}

Tensor
Sequential::backward(const Tensor &gy)
{
    Tensor g = gy;
    for (auto it = children.rbegin(); it != children.rend(); ++it)
        g = (*it)->backward(g);
    return g;
}

std::vector<Param>
Sequential::params()
{
    std::vector<Param> all;
    for (auto &l : children)
        for (auto &p : l->params())
            all.push_back(p);
    return all;
}

void
Sequential::visit(const std::function<void(Layer &)> &fn)
{
    for (auto &l : children) {
        if (auto *seq = dynamic_cast<Sequential *>(l.get()))
            seq->visit(fn);
        else if (auto *res = dynamic_cast<Residual *>(l.get()))
            res->visit(fn);
        else if (auto *inv = dynamic_cast<InvertedResidual *>(l.get()))
            inv->visit(fn);
        else if (auto *sqz = dynamic_cast<SqueezeExcite *>(l.get()))
            sqz->visit(fn);
        else
            fn(*l);
    }
}

// -------------------------------------------------------------- Residual

Residual::Residual(const Residual &other)
    : Layer(other),
      mainPath(std::make_unique<Sequential>(*other.mainPath)),
      shortcutPath(other.shortcutPath
                       ? std::make_unique<Sequential>(*other.shortcutPath)
                       : nullptr)
{}

LayerPtr
Residual::clone() const
{
    return std::make_unique<Residual>(*this);
}

Tensor
Residual::forward(const Tensor &x, bool train)
{
    Tensor main_out = mainPath->forward(x, train);
    Tensor short_out =
        shortcutPath ? shortcutPath->forward(x, train) : x;
    SE_ASSERT(main_out.size() == short_out.size(),
              "residual branch shape mismatch");
    Tensor sum = main_out;
    for (int64_t i = 0; i < sum.size(); ++i)
        sum[i] += short_out[i];
    return outRelu.forward(sum, train);
}

Tensor
Residual::backward(const Tensor &gy)
{
    Tensor gsum = outRelu.backward(gy);
    Tensor gmain = mainPath->backward(gsum);
    Tensor gshort =
        shortcutPath ? shortcutPath->backward(gsum) : gsum;
    Tensor gx = gmain;
    for (int64_t i = 0; i < gx.size(); ++i)
        gx[i] += gshort[i];
    return gx;
}

std::vector<Param>
Residual::params()
{
    std::vector<Param> all = mainPath->params();
    if (shortcutPath)
        for (auto &p : shortcutPath->params())
            all.push_back(p);
    return all;
}

void
Residual::visit(const std::function<void(Layer &)> &fn)
{
    mainPath->visit(fn);
    if (shortcutPath)
        shortcutPath->visit(fn);
}

// --------------------------------------------------------- SqueezeExcite

SqueezeExcite::SqueezeExcite(int64_t channels, int64_t reduced, Rng &rng)
    : ch(channels)
{
    fc1 = std::make_unique<Linear>(channels, reduced, rng);
    fc2 = std::make_unique<Linear>(reduced, channels, rng);
}

SqueezeExcite::SqueezeExcite(const SqueezeExcite &other)
    : Layer(other), ch(other.ch),
      fc1(std::make_unique<Linear>(*other.fc1)),
      fc2(std::make_unique<Linear>(*other.fc2))
{}

LayerPtr
SqueezeExcite::clone() const
{
    return std::make_unique<SqueezeExcite>(*this);
}

Tensor
SqueezeExcite::forward(const Tensor &x, bool train)
{
    cachedX = x;
    Tensor pooled = gap.forward(x, train);
    Tensor flat = flatten.forward(pooled, train);
    Tensor h = fc1->forward(flat, train);
    h = relu.forward(h, train);
    h = fc2->forward(h, train);
    Tensor scale = sigmoid.forward(h, train);  // (N, C)
    cachedScale = scale;

    const int64_t n = x.dim(0), hh = x.dim(2), ww = x.dim(3);
    Tensor y(x.shape());
    for (int64_t b = 0; b < n; ++b)
        for (int64_t c = 0; c < ch; ++c) {
            const float s = scale.at(b, c);
            for (int64_t i = 0; i < hh; ++i)
                for (int64_t j = 0; j < ww; ++j)
                    y.at(b, c, i, j) = x.at(b, c, i, j) * s;
        }
    return y;
}

Tensor
SqueezeExcite::backward(const Tensor &gy)
{
    const Tensor &x = cachedX;
    const int64_t n = x.dim(0), hh = x.dim(2), ww = x.dim(3);

    // d/dscale: sum over spatial of gy * x; d/dx (direct): gy * scale.
    Tensor gscale({n, ch});
    Tensor gx(x.shape());
    for (int64_t b = 0; b < n; ++b)
        for (int64_t c = 0; c < ch; ++c) {
            double s = 0.0;
            const float sc = cachedScale.at(b, c);
            for (int64_t i = 0; i < hh; ++i)
                for (int64_t j = 0; j < ww; ++j) {
                    s += (double)gy.at(b, c, i, j) * x.at(b, c, i, j);
                    gx.at(b, c, i, j) = gy.at(b, c, i, j) * sc;
                }
            gscale.at(b, c) = (float)s;
        }

    Tensor g = sigmoid.backward(gscale);
    g = fc2->backward(g);
    g = relu.backward(g);
    g = fc1->backward(g);
    g = flatten.backward(g);
    Tensor gx_pool = gap.backward(g);
    for (int64_t i = 0; i < gx.size(); ++i)
        gx[i] += gx_pool[i];
    return gx;
}

std::vector<Param>
SqueezeExcite::params()
{
    std::vector<Param> all = fc1->params();
    for (auto &p : fc2->params())
        all.push_back(p);
    return all;
}

void
SqueezeExcite::visit(const std::function<void(Layer &)> &fn)
{
    fn(*fc1);
    fn(*fc2);
}

// ------------------------------------------------------ InvertedResidual

InvertedResidual::InvertedResidual(int64_t in_ch, int64_t out_ch,
                                   int64_t stride, int64_t expand_ratio,
                                   bool use_se, Rng &rng)
{
    useSkip = stride == 1 && in_ch == out_ch;
    path = std::make_unique<Sequential>();
    const int64_t hidden = in_ch * expand_ratio;
    if (expand_ratio != 1) {
        path->add<Conv2d>(in_ch, hidden, 1, 1, 0, 1, rng, false);
        path->add<BatchNorm2d>(hidden);
        path->add<ReLU>(6.0f);
    }
    // Depth-wise 3x3.
    path->add<Conv2d>(hidden, hidden, 3, stride, 1, hidden, rng, false);
    path->add<BatchNorm2d>(hidden);
    path->add<ReLU>(6.0f);
    if (use_se)
        path->add<SqueezeExcite>(hidden, std::max<int64_t>(1, hidden / 4),
                                 rng);
    // Linear projection.
    path->add<Conv2d>(hidden, out_ch, 1, 1, 0, 1, rng, false);
    path->add<BatchNorm2d>(out_ch);
}

InvertedResidual::InvertedResidual(const InvertedResidual &other)
    : Layer(other), path(std::make_unique<Sequential>(*other.path)),
      useSkip(other.useSkip)
{}

LayerPtr
InvertedResidual::clone() const
{
    return std::make_unique<InvertedResidual>(*this);
}

Tensor
InvertedResidual::forward(const Tensor &x, bool train)
{
    Tensor y = path->forward(x, train);
    if (useSkip)
        for (int64_t i = 0; i < y.size(); ++i)
            y[i] += x[i];
    return y;
}

Tensor
InvertedResidual::backward(const Tensor &gy)
{
    Tensor gx = path->backward(gy);
    if (useSkip)
        for (int64_t i = 0; i < gx.size(); ++i)
            gx[i] += gy[i];
    return gx;
}

std::vector<Param>
InvertedResidual::params()
{
    return path->params();
}

void
InvertedResidual::visit(const std::function<void(Layer &)> &fn)
{
    path->visit(fn);
}

} // namespace nn
} // namespace se
