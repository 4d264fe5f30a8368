/**
 * @file
 * Unit tests for the NN framework: layer forward semantics against
 * hand-computed references and finite-difference gradient checks for
 * every layer's backward pass, the clone wall: Layer::clone() is
 * an exact, storage-disjoint deep copy of every zoo architecture, and
 * the fused eval wall: Sequential's in-place BatchNorm2d + ReLU pass
 * writes the bytes the two layers write one after the other.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "base/random.hh"
#include "models/zoo.hh"
#include "nn/blocks.hh"
#include "nn/loss.hh"
#include "nn/optim.hh"

namespace se {
namespace {

using nn::BatchNorm2d;
using nn::Conv2d;
using nn::Flatten;
using nn::GlobalAvgPool;
using nn::InvertedResidual;
using nn::Linear;
using nn::MaxPool2d;
using nn::ReLU;
using nn::Residual;
using nn::Sequential;
using nn::Sigmoid;
using nn::SqueezeExcite;
using nn::UpsampleNearest;

/**
 * Finite-difference gradient check of d(sum(layer(x)))/dx against the
 * layer's backward. Returns the max absolute difference.
 */
double
inputGradError(nn::Layer &layer, const Tensor &x, double eps = 1e-3)
{
    Tensor y = layer.forward(x, /*train=*/true);
    Tensor gy(y.shape(), 1.0f);
    layer.zeroGrad();
    Tensor gx = layer.backward(gy);

    double max_err = 0.0;
    // Probe a subset of positions to keep the test fast.
    const int64_t step = std::max<int64_t>(1, x.size() / 24);
    for (int64_t i = 0; i < x.size(); i += step) {
        Tensor xp = x, xm = x;
        xp[i] += (float)eps;
        xm[i] -= (float)eps;
        const double fp = layer.forward(xp, true).sum();
        const double fm = layer.forward(xm, true).sum();
        const double num = (fp - fm) / (2 * eps);
        max_err = std::max(max_err, std::abs(num - (double)gx[i]));
    }
    // Restore the cache for callers that continue using the layer.
    layer.forward(x, true);
    return max_err;
}

/** Finite-difference check of parameter gradients. */
double
paramGradError(nn::Layer &layer, const Tensor &x, double eps = 1e-3)
{
    Tensor y = layer.forward(x, true);
    Tensor gy(y.shape(), 1.0f);
    layer.zeroGrad();
    layer.backward(gy);

    double max_err = 0.0;
    for (auto &p : layer.params()) {
        const int64_t step =
            std::max<int64_t>(1, p.value->size() / 16);
        for (int64_t i = 0; i < p.value->size(); i += step) {
            const float save = (*p.value)[i];
            (*p.value)[i] = save + (float)eps;
            const double fp = layer.forward(x, true).sum();
            (*p.value)[i] = save - (float)eps;
            const double fm = layer.forward(x, true).sum();
            (*p.value)[i] = save;
            const double num = (fp - fm) / (2 * eps);
            max_err = std::max(
                max_err, std::abs(num - (double)(*p.grad)[i]));
        }
    }
    layer.forward(x, true);
    return max_err;
}

TEST(Conv2d, MatchesHandComputed1x1)
{
    Rng rng(1);
    Conv2d conv(2, 1, 1, 1, 0, 1, rng, false);
    conv.weightTensor().at(0, 0, 0, 0) = 2.0f;
    conv.weightTensor().at(0, 1, 0, 0) = -1.0f;
    Tensor x({1, 2, 2, 2});
    for (int64_t i = 0; i < x.size(); ++i)
        x[i] = (float)(i + 1);
    Tensor y = conv.forward(x, false);
    // y = 2*ch0 - ch1; ch0 = [1..4], ch1 = [5..8].
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 2 * 1 - 5);
    EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 2 * 4 - 8);
}

TEST(Conv2d, PaddingAndStrideShapes)
{
    Rng rng(2);
    Conv2d conv(3, 8, 3, 2, 1, 1, rng);
    Tensor x({2, 3, 9, 9});
    Tensor y = conv.forward(x, false);
    EXPECT_EQ(y.dim(0), 2);
    EXPECT_EQ(y.dim(1), 8);
    EXPECT_EQ(y.dim(2), 5);
    EXPECT_EQ(y.dim(3), 5);
}

TEST(Conv2d, DepthwiseLeavesChannelsIndependent)
{
    Rng rng(3);
    Conv2d conv(2, 2, 3, 1, 1, 2, rng, false);
    // Zero the second filter: its output channel must be all zero,
    // regardless of channel 0's content.
    Tensor &w = conv.weightTensor();
    for (int64_t k = 0; k < 9; ++k)
        w[9 + k] = 0.0f;
    Rng xr(4);
    Tensor x = randn({1, 2, 5, 5}, xr);
    Tensor y = conv.forward(x, false);
    for (int64_t i = 0; i < 5; ++i)
        for (int64_t j = 0; j < 5; ++j)
            EXPECT_FLOAT_EQ(y.at(0, 1, i, j), 0.0f);
}

TEST(Conv2d, GradientCheck)
{
    Rng rng(5);
    Conv2d conv(2, 3, 3, 1, 1, 1, rng);
    Tensor x = randn({1, 2, 4, 4}, rng);
    EXPECT_LT(inputGradError(conv, x), 1e-2);
    EXPECT_LT(paramGradError(conv, x), 1e-2);
}

TEST(Conv2d, DepthwiseGradientCheck)
{
    Rng rng(6);
    Conv2d conv(3, 3, 3, 1, 1, 3, rng, false);
    Tensor x = randn({1, 3, 4, 4}, rng);
    EXPECT_LT(inputGradError(conv, x), 1e-2);
    EXPECT_LT(paramGradError(conv, x), 1e-2);
}

TEST(Conv2d, StridedGradientCheck)
{
    Rng rng(7);
    Conv2d conv(2, 2, 3, 2, 1, 1, rng);
    Tensor x = randn({1, 2, 5, 5}, rng);
    EXPECT_LT(inputGradError(conv, x), 1e-2);
}

TEST(Conv2d, DilatedForwardShape)
{
    Rng rng(17);
    Conv2d conv(2, 2, 3, 1, 2, 1, rng, false, 2);
    Tensor x = randn({1, 2, 8, 8}, rng);
    Tensor y = conv.forward(x, false);
    EXPECT_EQ(y.dim(2), 8);
    EXPECT_EQ(y.dim(3), 8);
}

TEST(Linear, MatchesHandComputed)
{
    Rng rng(8);
    Linear lin(3, 2, rng);
    Tensor &w = lin.weightTensor();
    w.at(0, 0) = 1;  w.at(0, 1) = 2;  w.at(0, 2) = 3;
    w.at(1, 0) = -1; w.at(1, 1) = 0;  w.at(1, 2) = 1;
    lin.params()[1].value->fill(0.0f);
    Tensor x({1, 3}, std::vector<float>{1, 2, 3});
    Tensor y = lin.forward(x, false);
    EXPECT_FLOAT_EQ(y.at(0, 0), 14.0f);
    EXPECT_FLOAT_EQ(y.at(0, 1), 2.0f);
}

TEST(Linear, GradientCheck)
{
    Rng rng(9);
    Linear lin(5, 4, rng);
    Tensor x = randn({3, 5}, rng);
    EXPECT_LT(inputGradError(lin, x), 1e-2);
    EXPECT_LT(paramGradError(lin, x), 1e-2);
}

TEST(BatchNorm, NormalizesBatchStatistics)
{
    BatchNorm2d bn(2);
    Rng rng(10);
    Tensor x = randn({4, 2, 3, 3}, rng, 5.0f, 2.0f);
    Tensor y = bn.forward(x, true);
    // Per-channel mean ~0, var ~1.
    for (int64_t c = 0; c < 2; ++c) {
        double s = 0.0, s2 = 0.0;
        int64_t n = 0;
        for (int64_t b = 0; b < 4; ++b)
            for (int64_t i = 0; i < 3; ++i)
                for (int64_t j = 0; j < 3; ++j) {
                    const double v = y.at(b, c, i, j);
                    s += v;
                    s2 += v * v;
                    ++n;
                }
        EXPECT_NEAR(s / n, 0.0, 1e-4);
        EXPECT_NEAR(s2 / n, 1.0, 1e-2);
    }
}

TEST(BatchNorm, EvalUsesRunningStats)
{
    BatchNorm2d bn(1);
    Rng rng(11);
    // Train on several batches to populate running stats.
    for (int i = 0; i < 50; ++i)
        bn.forward(randn({8, 1, 2, 2}, rng, 3.0f, 1.0f), true);
    Tensor x({1, 1, 2, 2}, 3.0f);
    Tensor y = bn.forward(x, false);
    // Input at the running mean should map near zero.
    EXPECT_NEAR(y.at(0, 0, 0, 0), 0.0, 0.2);
}

TEST(BatchNorm, GradientCheck)
{
    BatchNorm2d bn(2);
    Rng rng(12);
    Tensor x = randn({3, 2, 3, 3}, rng);
    EXPECT_LT(inputGradError(bn, x), 2e-2);
    EXPECT_LT(paramGradError(bn, x), 2e-2);
}

TEST(ReLU, ForwardAndMask)
{
    ReLU relu;
    Tensor x({4}, std::vector<float>{-1, 0, 2, -3});
    Tensor y = relu.forward(x, true);
    EXPECT_FLOAT_EQ(y[0], 0);
    EXPECT_FLOAT_EQ(y[2], 2);
    Tensor g = relu.backward(Tensor({4}, 1.0f));
    EXPECT_FLOAT_EQ(g[0], 0);
    EXPECT_FLOAT_EQ(g[2], 1);
}

TEST(ReLU, Relu6Clamps)
{
    ReLU relu6(6.0f);
    Tensor x({3}, std::vector<float>{-1, 3, 10});
    Tensor y = relu6.forward(x, true);
    EXPECT_FLOAT_EQ(y[0], 0);
    EXPECT_FLOAT_EQ(y[1], 3);
    EXPECT_FLOAT_EQ(y[2], 6);
    Tensor g = relu6.backward(Tensor({3}, 1.0f));
    EXPECT_FLOAT_EQ(g[2], 0);  // clamped region has zero gradient
}

TEST(Sigmoid, GradientCheck)
{
    Sigmoid sig;
    Rng rng(13);
    Tensor x = randn({2, 6}, rng);
    EXPECT_LT(inputGradError(sig, x), 1e-3);
}

TEST(MaxPool, ForwardPicksMaxAndRoutesGradient)
{
    MaxPool2d pool(2, 2);
    Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
    Tensor y = pool.forward(x, true);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 5.0f);
    Tensor g = pool.backward(Tensor({1, 1, 1, 1}, 1.0f));
    EXPECT_FLOAT_EQ(g[1], 1.0f);
    EXPECT_FLOAT_EQ(g[0], 0.0f);
}

TEST(MaxPool, WindowsBelowMinusOneE30KeepTheirOwnMax)
{
    // Three 2x2 windows of one row: all -Inf, all below -1e30 (max
    // -2e30 in the last tap), and an ordinary window whose max sits
    // in its last tap.
    const float inf = std::numeric_limits<float>::infinity();
    MaxPool2d pool(2, 2);
    Tensor x({1, 1, 2, 6}, std::vector<float>{-inf, -inf, -5e30f, -3e30f,
                                              1.0f, 2.0f, -inf, -inf,
                                              -4e30f, -2e30f, 3.0f, 4.0f});
    const Tensor y = pool.forward(x, true);
    ASSERT_EQ(y.size(), 3);
    EXPECT_EQ(y[0], -inf);
    EXPECT_EQ(y[1], -2e30f);
    EXPECT_EQ(y[2], 4.0f);

    // Each window's gradient lands inside that window, on its max.
    const Tensor g =
        pool.backward(Tensor({1, 1, 1, 3}, std::vector<float>{1, 2, 4}));
    EXPECT_EQ(g[0], 1.0f);   // the all -Inf window: its first tap
    EXPECT_EQ(g[9], 2.0f);   // -2e30
    EXPECT_EQ(g[11], 4.0f);  // 4
    float total = 0.0f;
    for (int64_t i = 0; i < g.size(); ++i)
        total += g[i];
    EXPECT_EQ(total, 7.0f);
}

/**
 * The branchy per-window loop MaxPool2d ran in both modes before eval
 * got its select: seeded from the window's first tap, a later tap
 * replaces the max only when it compares greater.
 */
Tensor
maxPoolByBranch(const Tensor &x, int64_t kern, int64_t strd)
{
    const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
    const int64_t oh = (h - kern) / strd + 1, ow = (w - kern) / strd + 1;
    Tensor y({n, c, oh, ow});
    int64_t oi = 0;
    for (int64_t pl = 0; pl < n * c; ++pl)
        for (int64_t e = 0; e < oh; ++e)
            for (int64_t f = 0; f < ow; ++f, ++oi) {
                const int64_t first = (pl * h + e * strd) * w + f * strd;
                float best = x[first];
                for (int64_t kr = 0; kr < kern; ++kr)
                    for (int64_t ks = 0; ks < kern; ++ks)
                        if (x[first + kr * w + ks] > best)
                            best = x[first + kr * w + ks];
                y[oi] = best;
            }
    return y;
}

TEST(MaxPool, EvalSelectMatchesTheBranchyLoopBitForBit)
{
    // Taps drawn mostly from a small set of specials, so windows hold
    // NaNs (the hardware's, a payload one and a negative one) in
    // every position, ±0 ties, ±Inf and repeated equal values.
    const float inf = std::numeric_limits<float>::infinity();
    volatile float vinf = inf;
    float payload, neg_nan;
    const uint32_t payload_bits = 0x7fc12345u, neg_bits = 0xffc00001u;
    std::memcpy(&payload, &payload_bits, 4);
    std::memcpy(&neg_nan, &neg_bits, 4);
    const float specials[] = {vinf - vinf, payload, neg_nan, 0.0f, -0.0f,
                              inf,         -inf,    1.0f,    1.0f, -2.0f};
    Rng rng(71);
    for (const auto &[kern, strd] :
         std::vector<std::pair<int64_t, int64_t>>{
             {2, 2}, {2, 1}, {3, 1}, {3, 2}, {1, 1}}) {
        Tensor x = randn({2, 3, 7, 9}, rng);
        for (int64_t i = 0; i < x.size(); ++i)
            if (rng.chance(0.6))
                x[i] = specials[rng.integer(0, 9)];
        const Tensor want = maxPoolByBranch(x, kern, strd);
        for (bool train : {false, true}) {
            MaxPool2d pool(kern, strd);
            const Tensor got = pool.forward(x, train);
            ASSERT_EQ(got.shape(), want.shape());
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  (size_t)want.size() * sizeof(float)),
                      0)
                << "kernel " << kern << " stride " << strd
                << (train ? " train" : " eval");
        }
    }
}

TEST(GlobalAvgPool, ForwardAndGradient)
{
    GlobalAvgPool gap;
    Tensor x({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 6});
    Tensor y = gap.forward(x, true);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 3.0f);
    Tensor g = gap.backward(Tensor({1, 1, 1, 1}, 4.0f));
    for (int64_t i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(g[i], 1.0f);
}

TEST(Upsample, NearestForwardBackward)
{
    UpsampleNearest up(2);
    Tensor x({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
    Tensor y = up.forward(x, true);
    EXPECT_EQ(y.dim(2), 4);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 1), 1.0f);
    EXPECT_FLOAT_EQ(y.at(0, 0, 3, 3), 4.0f);
    Tensor g = up.backward(Tensor(y.shape(), 1.0f));
    for (int64_t i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(g[i], 4.0f);
}

TEST(SqueezeExcite, ScalesChannels)
{
    Rng rng(14);
    SqueezeExcite se(4, 2, rng);
    Tensor x = randn({2, 4, 3, 3}, rng);
    Tensor y = se.forward(x, false);
    // Output must be x scaled per channel by something in (0, 1).
    for (int64_t b = 0; b < 2; ++b)
        for (int64_t c = 0; c < 4; ++c) {
            // Find ratio from a non-zero element.
            for (int64_t i = 0; i < 3; ++i)
                for (int64_t j = 0; j < 3; ++j)
                    if (std::abs(x.at(b, c, i, j)) > 1e-3) {
                        const double ratio =
                            y.at(b, c, i, j) / x.at(b, c, i, j);
                        EXPECT_GT(ratio, 0.0);
                        EXPECT_LT(ratio, 1.0);
                    }
        }
}

TEST(SqueezeExcite, GradientCheck)
{
    Rng rng(15);
    SqueezeExcite se(3, 2, rng);
    Tensor x = randn({1, 3, 3, 3}, rng);
    EXPECT_LT(inputGradError(se, x), 2e-2);
}

TEST(Residual, IdentitySkipAddsInput)
{
    Rng rng(16);
    auto main = std::make_unique<Sequential>();
    auto *conv = main->add<Conv2d>(2, 2, 3, 1, 1, 1, rng, false);
    conv->weightTensor().fill(0.0f);  // main path outputs zero
    Residual res(std::move(main), nullptr);
    Tensor x = randn({1, 2, 4, 4}, rng);
    x.apply([](float v) { return std::abs(v); });  // positive input
    Tensor y = res.forward(x, false);
    for (int64_t i = 0; i < x.size(); ++i)
        EXPECT_FLOAT_EQ(y[i], x[i]);  // relu(0 + x) == x
}

TEST(Residual, GradientCheck)
{
    Rng rng(17);
    auto main = std::make_unique<Sequential>();
    main->add<Conv2d>(2, 2, 3, 1, 1, 1, rng, false);
    Residual res(std::move(main), nullptr);
    Tensor x = randn({1, 2, 3, 3}, rng);
    EXPECT_LT(inputGradError(res, x), 1e-2);
}

TEST(InvertedResidual, SkipOnlyWhenShapesMatch)
{
    Rng rng(18);
    InvertedResidual with_skip(4, 4, 1, 2, false, rng);
    InvertedResidual no_skip(4, 8, 1, 2, false, rng);
    EXPECT_TRUE(with_skip.hasSkip());
    EXPECT_FALSE(no_skip.hasSkip());
    Tensor x = randn({1, 4, 4, 4}, rng);
    Tensor y = no_skip.forward(x, false);
    EXPECT_EQ(y.dim(1), 8);
}

TEST(Sequential, VisitReachesAllLeaves)
{
    Rng rng(19);
    Sequential net;
    net.add<Conv2d>(2, 4, 3, 1, 1, 1, rng);
    net.add<BatchNorm2d>(4);
    net.add<ReLU>();
    net.add<InvertedResidual>(4, 4, 1, 2, true, rng);
    int leaves = 0;
    net.visit([&](nn::Layer &) { ++leaves; });
    // conv, bn, relu + inverted residual's leaves (expand conv/bn/relu,
    // dw conv/bn/relu, SE's 2 FCs, project conv/bn).
    EXPECT_EQ(leaves, 3 + 3 + 3 + 2 + 2);
}

/** Every tensor a net's eval forward reads: parameter values plus BN
 *  running stats, in visit order. */
std::vector<Tensor *>
stateTensors(Sequential &net)
{
    std::vector<Tensor *> out;
    for (const nn::Param &p : net.params())
        out.push_back(p.value);
    net.visit([&](nn::Layer &l) {
        if (auto *bn = dynamic_cast<BatchNorm2d *>(&l)) {
            out.push_back(&bn->runningMeanTensor());
            out.push_back(&bn->runningVarTensor());
        }
    });
    return out;
}

std::vector<std::vector<float>>
snapshot(Sequential &net)
{
    std::vector<std::vector<float>> out;
    for (const Tensor *t : stateTensors(net))
        out.push_back(t->vec());
    return out;
}

bool
bitEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       (size_t)a.size() * sizeof(float)) == 0;
}

TEST(CloneWall, EveryZooNetClonesExactlyAndIndependently)
{
    using models::ModelId;
    const ModelId ids[] = {ModelId::VGG11,        ModelId::VGG19,
                           ModelId::ResNet50,     ModelId::ResNet164,
                           ModelId::MobileNetV2,  ModelId::EfficientNetB0,
                           ModelId::DeepLabV3Plus, ModelId::MLP1,
                           ModelId::MLP2};
    models::SimConfig cfg;
    for (ModelId id : ids) {
        SCOPED_TRACE(models::modelName(id));
        auto src = models::buildSim(id, cfg);
        Rng rng(31);
        const Tensor x = randn(
            {2, cfg.inChannels, cfg.inHeight, cfg.inWidth}, rng);
        // A train-mode forward moves the BN running stats off their
        // init, so the clone has to carry them.
        src->forward(x, /*train=*/true);

        const nn::LayerPtr copy = src->clone();
        auto *clone = dynamic_cast<Sequential *>(copy.get());
        ASSERT_NE(clone, nullptr);
        EXPECT_TRUE(bitEqual(clone->forward(x, false),
                             src->forward(x, false)));

        // No shared storage: every state tensor has its own buffer.
        const std::vector<Tensor *> a = stateTensors(*src);
        const std::vector<Tensor *> b = stateTensors(*clone);
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) {
            EXPECT_NE(a[i], b[i]);
            EXPECT_TRUE(a[i]->empty() || a[i]->data() != b[i]->data());
        }

        // One train step on the clone leaves the source untouched.
        const auto before = snapshot(*src);
        Tensor y = clone->forward(x, true);
        clone->zeroGrad();
        clone->backward(Tensor(y.shape(), 1.0f));
        nn::Sgd(0.1f).step(clone->params());
        EXPECT_EQ(snapshot(*src), before);
        EXPECT_NE(snapshot(*clone), before);
    }
}

/**
 * The eval forward of `l` with every child of every Sequential run on
 * its own, recursing into the paths of residual and inverted-residual
 * blocks (the Sequentials that fuse BatchNorm2d + ReLU).
 */
Tensor
childByChild(nn::Layer &l, const Tensor &x, int &pairs)
{
    if (auto *seq = dynamic_cast<Sequential *>(&l)) {
        Tensor h = x;
        for (size_t i = 0; i < seq->size(); ++i) {
            pairs += i + 1 < seq->size() &&
                     dynamic_cast<BatchNorm2d *>(seq->layer(i)) &&
                     dynamic_cast<ReLU *>(seq->layer(i + 1));
            h = childByChild(*seq->layer(i), h, pairs);
        }
        return h;
    }
    if (auto *res = dynamic_cast<Residual *>(&l)) {
        Tensor sum = childByChild(res->main(), x, pairs);
        const Tensor skip =
            res->shortcut() ? childByChild(*res->shortcut(), x, pairs) : x;
        for (int64_t i = 0; i < sum.size(); ++i)
            sum[i] += skip[i];
        return ReLU().forward(sum, false);
    }
    if (auto *inv = dynamic_cast<InvertedResidual *>(&l)) {
        Tensor y = childByChild(inv->body(), x, pairs);
        if (inv->hasSkip())
            for (int64_t i = 0; i < y.size(); ++i)
                y[i] += x[i];
        return y;
    }
    return l.forward(x, false);
}

/** Gaussians salted with +-0, +-Inf and NaN at rate `rate`. */
Tensor
saltedInput(const Shape &shape, Rng &rng, double rate)
{
    volatile float inf = std::numeric_limits<float>::infinity();
    const float specials[] = {0.0f, -0.0f, inf, -inf, inf - inf};
    Tensor t = randn(shape, rng);
    for (int64_t i = 0; i < t.size(); ++i)
        if (rng.chance(rate))
            t[i] = specials[rng.integer(0, 4)];
    return t;
}

/**
 * Running stats and affine terms off their init: small and large
 * variances, zero and negative gammas, -0 betas.
 */
void
perturbBatchNorm(BatchNorm2d &bn, Rng &rng)
{
    for (int64_t c = 0; c < bn.gammaTensor().size(); ++c) {
        bn.runningMeanTensor()[c] = rng.gaussian(0.0f, 1.0f);
        bn.runningVarTensor()[c] =
            rng.chance(0.2) ? 0.0f : rng.uniform(0.01f, 9.0f);
        bn.gammaTensor()[c] =
            rng.chance(0.1) ? 0.0f : rng.gaussian(0.0f, 2.0f);
        bn.betaTensor()[c] =
            rng.chance(0.2) ? -0.0f : rng.gaussian(0.0f, 1.0f);
    }
}

TEST(FusedEvalWall, BatchNormReluPairMatchesTwoLayers)
{
    // Every special the pass must map as the two layers do, through
    // the plain ReLU and the ReLU6 clamp.
    Rng rng(41);
    for (float relu_max : {0.0f, 6.0f}) {
        Sequential net;
        BatchNorm2d *bn = net.add<BatchNorm2d>(3);
        perturbBatchNorm(*bn, rng);
        // Channel 0 normalizes to +-0 (0 * xhat + -0), which the ReLU
        // must turn into +0.
        bn->gammaTensor()[0] = 0.0f;
        bn->betaTensor()[0] = -0.0f;
        net.add<ReLU>(relu_max);
        // 15-float planes: three blocks of 4 and a tail of 3.
        Tensor x = saltedInput({2, 3, 5, 3}, rng, 0.3);
        x[0] = 1e-40f;  // a denormal
        x[1] = 3e38f;   // overflows once normalized
        int pairs = 0;
        EXPECT_TRUE(bitEqual(childByChild(net, x, pairs),
                             net.forward(x, false)))
            << "relu max " << relu_max;
        EXPECT_EQ(pairs, 1);
    }
}

/** BatchNorm2d's eval forward as a plain per-element loop. */
Tensor
elementLoopEval(BatchNorm2d &bn, const Tensor &x)
{
    const int64_t n = x.dim(0), ch = x.dim(1), h = x.dim(2), w = x.dim(3);
    const float eps = 1e-5f;
    Tensor y(x.shape());
    for (int64_t c = 0; c < ch; ++c) {
        const double mean = bn.runningMeanTensor()[c];
        const double var = bn.runningVarTensor()[c];
        const double inv_std = 1.0 / std::sqrt(var + eps);
        for (int64_t b = 0; b < n; ++b)
            for (int64_t i = 0; i < h; ++i)
                for (int64_t j = 0; j < w; ++j) {
                    const double xh =
                        ((double)x.at(b, c, i, j) - mean) * inv_std;
                    y.at(b, c, i, j) = (float)(bn.gammaTensor()[c] * xh +
                                               bn.betaTensor()[c]);
                }
    }
    return y;
}

TEST(FusedEvalWall, BatchNormEvalMatchesTheElementLoop)
{
    // A BatchNorm2d that no ReLU follows runs the pass with the ReLU
    // off: NaN, +-0, +-Inf, denormals and overflow must come out as
    // the per-element loop wrote them, on planes with and without a
    // tail after the blocks of 4.
    Rng rng(45);
    const Shape shapes[] = {{2, 3, 5, 3}, {3, 4, 1, 1}, {1, 2, 8, 8}};
    for (const Shape &shape : shapes) {
        BatchNorm2d bn(shape[1]);
        perturbBatchNorm(bn, rng);
        // Channel 0 normalizes to +-0 (0 * xhat + -0).
        bn.gammaTensor()[0] = 0.0f;
        bn.betaTensor()[0] = -0.0f;
        Tensor x = saltedInput(shape, rng, 0.3);
        for (int64_t i = 0; i < x.size(); i += 7)
            x[i] = rng.chance(0.5) ? 1e-40f : -3e-42f;  // denormals
        x[1] = 3e38f;  // overflows once normalized
        EXPECT_TRUE(bitEqual(elementLoopEval(bn, x), bn.forward(x, false)))
            << shape[0] << "x" << shape[1] << "x" << shape[2] << "x"
            << shape[3];
    }
}

TEST(FusedEvalWall, EveryZooNetMatchesAChildByChildWalk)
{
    using models::ModelId;
    const ModelId ids[] = {ModelId::VGG11,        ModelId::VGG19,
                           ModelId::ResNet50,     ModelId::ResNet164,
                           ModelId::MobileNetV2,  ModelId::EfficientNetB0,
                           ModelId::DeepLabV3Plus, ModelId::MLP1,
                           ModelId::MLP2};
    models::SimConfig cfg;
    int fused = 0;
    for (ModelId id : ids) {
        SCOPED_TRACE(models::modelName(id));
        auto net = models::buildSim(id, cfg);
        Rng rng(43);
        net->visit([&](nn::Layer &l) {
            if (auto *bn = dynamic_cast<BatchNorm2d *>(&l))
                perturbBatchNorm(*bn, rng);
        });
        for (int64_t batch : {1, 3, 8}) {
            const Tensor x = saltedInput(
                {batch, cfg.inChannels, cfg.inHeight, cfg.inWidth}, rng,
                0.02);
            int pairs = 0;
            const Tensor want = childByChild(*net, x, pairs);
            EXPECT_TRUE(bitEqual(want, net->forward(x, false)))
                << "batch " << batch;
            fused += pairs;
        }
    }
    EXPECT_GT(fused, 100);  // the CNNs really run fused pairs
}

TEST(Loss, SoftmaxCrossEntropyGradientSumsToZero)
{
    Rng rng(20);
    Tensor logits = randn({4, 5}, rng);
    auto res = nn::softmaxCrossEntropy(logits, {0, 1, 2, 3});
    EXPECT_GT(res.loss, 0.0);
    for (int64_t b = 0; b < 4; ++b) {
        double s = 0.0;
        for (int64_t c = 0; c < 5; ++c)
            s += res.grad.at(b, c);
        EXPECT_NEAR(s, 0.0, 1e-6);
    }
}

TEST(Loss, PerfectPredictionLowLoss)
{
    Tensor logits({2, 3}, std::vector<float>{10, 0, 0, 0, 10, 0});
    auto res = nn::softmaxCrossEntropy(logits, {0, 1});
    EXPECT_LT(res.loss, 1e-3);
    EXPECT_DOUBLE_EQ(nn::accuracy(logits, {0, 1}), 1.0);
}

TEST(Loss, PixelCrossEntropyShape)
{
    Rng rng(21);
    Tensor logits = randn({1, 3, 4, 4}, rng);
    Tensor labels({1, 4, 4}, 1.0f);
    auto res = nn::pixelCrossEntropy(logits, labels);
    EXPECT_GT(res.loss, 0.0);
    EXPECT_EQ(res.grad.size(), logits.size());
}

TEST(Loss, MeanIoUPerfect)
{
    Tensor logits({1, 2, 2, 2}, 0.0f);
    Tensor labels({1, 2, 2}, 0.0f);
    // Predict class 0 everywhere: logits[c=0] high.
    for (int64_t i = 0; i < 2; ++i)
        for (int64_t j = 0; j < 2; ++j)
            logits.at(0, 0, i, j) = 5.0f;
    EXPECT_DOUBLE_EQ(nn::meanIoU(logits, labels, 2), 1.0);
}

TEST(Sgd, ConvergesOnQuadratic)
{
    // Minimize sum((w - 3)^2) through the Param interface.
    Tensor w({4}, 0.0f), g({4});
    nn::Sgd opt(0.1f, 0.0f);
    for (int it = 0; it < 200; ++it) {
        for (int64_t i = 0; i < 4; ++i)
            g[i] = 2.0f * (w[i] - 3.0f);
        opt.step({{&w, &g, "w"}});
    }
    for (int64_t i = 0; i < 4; ++i)
        EXPECT_NEAR(w[i], 3.0f, 1e-3);
}

TEST(Sgd, MomentumAcceleratesDescent)
{
    Tensor w1({1}, 10.0f), g1({1});
    Tensor w2({1}, 10.0f), g2({1});
    nn::Sgd plain(0.01f, 0.0f), momentum(0.01f, 0.9f);
    for (int it = 0; it < 50; ++it) {
        g1[0] = 2.0f * w1[0];
        plain.step({{&w1, &g1, "w"}});
        g2[0] = 2.0f * w2[0];
        momentum.step({{&w2, &g2, "w"}});
    }
    EXPECT_LT(std::abs(w2[0]), std::abs(w1[0]));
}

} // namespace
} // namespace se
