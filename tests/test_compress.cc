/**
 * @file
 * Tests for the baseline compression techniques (Fig. 8 comparators).
 */

#include <gtest/gtest.h>

#include "base/random.hh"
#include "compress/baselines.hh"
#include "quant/quant.hh"

namespace se {
namespace {

nn::Sequential
makeNet(uint64_t seed)
{
    Rng rng(seed);
    nn::Sequential net;
    // Built piecemeal because Sequential is move-only in aggregate.
    net.add<nn::Conv2d>(3, 8, 3, 1, 1, 1, rng, false);
    net.add<nn::BatchNorm2d>(8);
    net.add<nn::ReLU>();
    net.add<nn::Conv2d>(8, 16, 3, 1, 1, 1, rng, false);
    net.add<nn::BatchNorm2d>(16);
    net.add<nn::ReLU>();
    net.add<nn::Flatten>();
    return net;
}

TEST(ChannelPruning, PrunesRequestedFraction)
{
    auto net = makeNet(1);
    auto rep = compress::pruneChannelsBnGamma(net, 0.5);
    EXPECT_EQ(rep.technique, "NetworkSlimming");
    // Gammas start at 1.0 uniformly, so the threshold catches about
    // half (ties resolved by <=).
    EXPECT_GT(rep.sparsity, 0.2);
    EXPECT_GT(rep.compressionRate(), 1.0);
}

TEST(ChannelPruning, ZeroRatioPrunesLittle)
{
    auto net = makeNet(2);
    auto rep = compress::pruneChannelsBnGamma(net, 0.0);
    EXPECT_LT(rep.sparsity, 0.2);
}

TEST(FilterPruning, SparsityTracksRatio)
{
    auto net = makeNet(3);
    auto rep = compress::pruneFiltersL1(net, 0.25);
    EXPECT_NEAR(rep.sparsity, 0.25, 0.1);
    auto net2 = makeNet(3);
    auto rep2 = compress::pruneFiltersL1(net2, 0.75);
    EXPECT_GT(rep2.sparsity, rep.sparsity);
}

TEST(FilterPruning, RemovesLowestNormFilters)
{
    Rng rng(4);
    nn::Sequential net;
    auto *conv = net.add<nn::Conv2d>(2, 4, 3, 1, 1, 1, rng, false);
    Tensor &w = conv->weightTensor();
    const int64_t pf = w.size() / 4;
    // Make filter 2 clearly the smallest.
    for (int64_t k = 0; k < pf; ++k)
        w[2 * pf + k] = 1e-6f;
    compress::pruneFiltersL1(net, 0.25);
    for (int64_t k = 0; k < pf; ++k)
        EXPECT_FLOAT_EQ(w[2 * pf + k], 0.0f);
}

TEST(KBitQuant, StorageShrinksByBitRatio)
{
    auto net = makeNet(5);
    auto rep = compress::quantizeKBit(net, 8);
    EXPECT_NEAR(rep.compressionRate(), 4.0, 1e-9);
    auto net2 = makeNet(5);
    auto rep2 = compress::quantizeKBit(net2, 2);
    EXPECT_NEAR(rep2.compressionRate(), 16.0, 1e-9);
}

TEST(KBitQuant, WeightsBecomeGridValues)
{
    auto net = makeNet(6);
    std::vector<nn::Conv2d *> convs;
    net.visit([&](nn::Layer &l) {
        if (auto *c = dynamic_cast<nn::Conv2d *>(&l))
            convs.push_back(c);
    });
    compress::quantizeKBit(net, 4);
    for (auto *c : convs) {
        auto q = quant::FixedPointQuantizer::calibrate(
            c->weightTensor(), 4);
        for (int64_t i = 0; i < c->weightTensor().size(); ++i) {
            const float v = c->weightTensor()[i];
            EXPECT_NEAR(v, q.toFloat(q.toInt(v)), 1e-5f);
        }
    }
}

TEST(Pow2Quant, WeightsBecomePowersOfTwo)
{
    auto net = makeNet(7);
    auto rep = compress::quantizePow2(net, 4);
    EXPECT_NEAR(rep.compressionRate(), 8.0, 1e-9);
    std::vector<nn::Conv2d *> convs;
    net.visit([&](nn::Layer &l) {
        if (auto *c = dynamic_cast<nn::Conv2d *>(&l))
            convs.push_back(c);
    });
    for (auto *c : convs)
        for (int64_t i = 0; i < c->weightTensor().size(); ++i) {
            const float v = std::abs(c->weightTensor()[i]);
            if (v == 0.0f)
                continue;
            int e;
            const float frac = std::frexp(v, &e);
            EXPECT_FLOAT_EQ(frac, 0.5f) << "not a power of two: " << v;
        }
}

TEST(Baselines, OriginalBitsIdenticalAcrossTechniques)
{
    auto n1 = makeNet(8);
    auto n2 = makeNet(8);
    auto r1 = compress::pruneFiltersL1(n1, 0.5);
    auto r2 = compress::quantizeKBit(n2, 8);
    EXPECT_EQ(r1.originalBits, r2.originalBits);
}

} // namespace
} // namespace se
