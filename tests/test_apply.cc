/**
 * @file
 * Tests of network-level SmartExchange application: reshaping rules for
 * CONV/FC/1x1 layers, channel pruning via BN gamma, storage accounting,
 * and in-place weight replacement, with a wall pinning the Ce*B install
 * bit for bit to the reference matmul.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "base/random.hh"
#include "core/apply.hh"
#include "reference/reference.hh"

namespace se {
namespace {

using core::ApplyOptions;
using core::applySmartExchange;
using core::decomposeConvWeight;
using core::SeOptions;

TEST(ConvReshape, OnePiecePerFilterWithoutSlicing)
{
    Rng rng(1);
    Tensor w = randn({4, 8, 3, 3}, rng, 0.0f, 0.1f);
    auto pieces = decomposeConvWeight(w, SeOptions{}, ApplyOptions{});
    EXPECT_EQ(pieces.size(), 4u);
    for (const auto &p : pieces) {
        EXPECT_EQ(p.ce.dim(0), 8 * 3);  // C * R rows
        EXPECT_EQ(p.ce.dim(1), 3);      // S columns
        EXPECT_EQ(p.basis.dim(0), 3);
        EXPECT_EQ(p.basis.dim(1), 3);
    }
}

TEST(ConvReshape, SlicingSplitsTallFilters)
{
    Rng rng(2);
    Tensor w = randn({2, 32, 3, 3}, rng, 0.0f, 0.1f);
    ApplyOptions ao;
    ao.maxSliceRows = 24;  // 96 rows per filter -> 4 slices
    auto pieces = decomposeConvWeight(w, SeOptions{}, ao);
    EXPECT_EQ(pieces.size(), 2u * 4u);
}

/** The plan of a one-Linear net whose weight is `w` (out x in). */
core::CompressionPlan
planLinear(nn::Sequential &net, const Tensor &w, const ApplyOptions &ao)
{
    Rng rng(0);
    auto *fc = net.add<nn::Linear>(w.dim(1), w.dim(0), rng, false);
    fc->weightTensor() = w;
    return core::planCompression(net, SeOptions{}, ao);
}

TEST(FcReshape, RowsBecomeGroupedMatrices)
{
    Rng rng(3);
    Tensor w = randn({5, 32}, rng, 0.0f, 0.1f);
    ApplyOptions ao;
    ao.fcGroupSize = 4;
    nn::Sequential net;
    const auto plan = planLinear(net, w, ao);
    ASSERT_EQ(plan.units.size(), 5u);
    for (const auto &u : plan.units) {
        EXPECT_EQ(u.matrix.dim(0), 8);  // 32/4
        EXPECT_EQ(u.matrix.dim(1), 4);
        EXPECT_EQ(u.rowOffset, 0);
        for (int64_t j = 0; j < 32; ++j)
            EXPECT_EQ(u.matrix.at(j / 4, j % 4), w.at(u.filter, j));
    }
}

TEST(FcReshape, PadsWhenNotDivisible)
{
    Rng rng(4);
    Tensor w = randn({2, 30}, rng, 0.0f, 0.1f);  // 30 not /4
    ApplyOptions ao;
    ao.fcGroupSize = 4;
    nn::Sequential net;
    const auto plan = planLinear(net, w, ao);
    ASSERT_EQ(plan.units.size(), 2u);
    for (const auto &u : plan.units) {
        EXPECT_EQ(u.matrix.dim(0), 8);  // ceil(30/4)
        for (int64_t j = 0; j < 30; ++j)
            EXPECT_EQ(u.matrix.at(j / 4, j % 4), w.at(u.filter, j));
        EXPECT_EQ(u.matrix.at(7, 2), 0.0f);  // the zero padding
        EXPECT_EQ(u.matrix.at(7, 3), 0.0f);
    }
}

TEST(Apply, ReplacesWeightsWithReconstruction)
{
    Rng rng(5);
    nn::Sequential net;
    auto *conv = net.add<nn::Conv2d>(4, 6, 3, 1, 1, 1, rng, false);
    Tensor before = conv->weightTensor();

    SeOptions opts;
    opts.vectorThreshold = 0.01;
    auto report = applySmartExchange(net, opts, ApplyOptions{});

    // Weights changed (projection happened) but stayed close.
    const Tensor &after = conv->weightTensor();
    double diff = 0.0, norm = 0.0;
    for (int64_t i = 0; i < before.size(); ++i) {
        diff += std::abs(before[i] - after[i]);
        norm += std::abs(before[i]);
    }
    EXPECT_GT(diff, 0.0);
    EXPECT_LT(diff / norm, 0.8);
    ASSERT_EQ(report.layers.size(), 1u);
    EXPECT_TRUE(report.layers[0].decomposed);
    EXPECT_EQ(report.layers[0].pieces, 6);
}

TEST(Apply, CompressionRateBeatsEightToOne)
{
    // 4-bit coefficients + sparsity must beat FP32 by well over 8x.
    Rng rng(6);
    nn::Sequential net;
    net.add<nn::Conv2d>(8, 16, 3, 1, 1, 1, rng, false);
    net.add<nn::Conv2d>(16, 16, 3, 1, 1, 1, rng, false);
    SeOptions opts;
    opts.minVectorSparsity = 0.5;
    auto report = applySmartExchange(net, opts, ApplyOptions{});
    EXPECT_GT(report.compressionRate(), 8.0);
    EXPECT_GT(report.overallVectorSparsity(), 0.45);
}

TEST(Apply, ChannelPruningZerosFiltersAndGamma)
{
    Rng rng(7);
    nn::Sequential net;
    auto *conv = net.add<nn::Conv2d>(4, 8, 3, 1, 1, 1, rng, false);
    auto *bn = net.add<nn::BatchNorm2d>(8);
    // Three small gammas.
    bn->gammaTensor()[1] = 0.001f;
    bn->gammaTensor()[4] = -0.002f;
    bn->gammaTensor()[6] = 0.0005f;

    SeOptions opts;
    ApplyOptions ao;
    ao.channelGammaThreshold = 0.01;
    auto report = applySmartExchange(net, opts, ao);

    EXPECT_FLOAT_EQ(bn->gammaTensor()[1], 0.0f);
    const Tensor &w = conv->weightTensor();
    const int64_t pf = w.size() / w.dim(0);
    for (int64_t k = 0; k < pf; ++k) {
        EXPECT_FLOAT_EQ(w[1 * pf + k], 0.0f);
        EXPECT_FLOAT_EQ(w[4 * pf + k], 0.0f);
        EXPECT_FLOAT_EQ(w[6 * pf + k], 0.0f);
    }
    EXPECT_NEAR(report.layers[0].channelSparsity, 3.0 / 8.0, 1e-9);
}

TEST(Apply, OneByOneConvUsesFcRule)
{
    Rng rng(8);
    nn::Sequential net;
    net.add<nn::Conv2d>(32, 4, 1, 1, 0, 1, rng, false);
    SeOptions opts;
    auto report = applySmartExchange(net, opts, ApplyOptions{});
    ASSERT_EQ(report.layers.size(), 1u);
    EXPECT_TRUE(report.layers[0].decomposed);
    // FC rule: one piece per output channel (row).
    EXPECT_EQ(report.layers[0].pieces, 4);
}

TEST(Apply, TinyLayersAreSkipped)
{
    Rng rng(9);
    nn::Sequential net;
    net.add<nn::Conv2d>(1, 1, 3, 1, 1, 1, rng, false);  // 9 weights
    auto report = applySmartExchange(net, SeOptions{}, ApplyOptions{});
    ASSERT_EQ(report.layers.size(), 1u);
    EXPECT_FALSE(report.layers[0].decomposed);
}

TEST(Apply, LinearLayerDecomposed)
{
    Rng rng(10);
    nn::Sequential net;
    net.add<nn::Linear>(64, 10, rng);
    SeOptions opts;
    auto report = applySmartExchange(net, opts, ApplyOptions{});
    ASSERT_EQ(report.layers.size(), 1u);
    EXPECT_TRUE(report.layers[0].decomposed);
    EXPECT_GT(report.compressionRate(), 4.0);
}

TEST(Apply, ReportTotalsAreConsistent)
{
    Rng rng(11);
    nn::Sequential net;
    net.add<nn::Conv2d>(4, 8, 3, 1, 1, 1, rng, false);
    net.add<nn::Linear>(32, 10, rng);
    auto report = applySmartExchange(net, SeOptions{}, ApplyOptions{});
    int64_t ce = 0, basis = 0;
    for (const auto &l : report.layers) {
        ce += l.ceBits;
        basis += l.basisBits;
    }
    EXPECT_EQ(ce, report.ceBitsTotal());
    EXPECT_EQ(basis, report.basisBitsTotal());
    EXPECT_EQ(report.compressedBits(), ce + basis);
    EXPECT_GT(report.paramMB(), 0.0);
    EXPECT_NEAR(report.paramMB(),
                report.ceMB() + report.basisMB(), 1e-9);
}

TEST(Apply, HigherThresholdGivesSmallerModel)
{
    Rng rng(12);
    nn::Sequential net1, net2;
    net1.add<nn::Conv2d>(8, 8, 3, 1, 1, 1, rng, false);
    Rng rng2(12);
    net2.add<nn::Conv2d>(8, 8, 3, 1, 1, 1, rng2, false);

    SeOptions loose, tight;
    loose.vectorThreshold = 1e-4;
    tight.vectorThreshold = 0.05;
    auto rep1 = applySmartExchange(net1, loose, ApplyOptions{});
    auto rep2 = applySmartExchange(net2, tight, ApplyOptions{});
    EXPECT_GE(rep2.compressionRate(), rep1.compressionRate());
}

// ------------------------------------------------------ install wall

/**
 * A piece with rank r and width n whose Ce holds +-0 and +-2^k (some
 * rows all zero) and whose basis holds +-0 among random values.
 */
core::SeMatrix
wallPiece(Rng &rng, int64_t rows, int64_t r, int64_t n)
{
    core::SeMatrix p;
    p.ce = Tensor({rows, r});
    for (int64_t i = 0; i < rows; ++i) {
        if (rng.chance(0.3)) {  // a zero row, with -0 entries in it
            for (int64_t j = 0; j < r; ++j)
                p.ce.at(i, j) = rng.chance(0.5) ? -0.0f : 0.0f;
            continue;
        }
        for (int64_t j = 0; j < r; ++j) {
            const float mag = std::ldexp(1.0f, (int)rng.integer(-6, 1));
            const double u = rng.uniform();
            p.ce.at(i, j) = u < 0.15 ? -0.0f : u < 0.3 ? 0.0f
                          : u < 0.65 ? mag : -mag;
        }
    }
    p.basis = randn({r, n}, rng);
    for (int64_t k = 0; k < p.basis.size(); ++k)
        if (rng.chance(0.15))
            p.basis[k] = rng.chance(0.5) ? -0.0f : 0.0f;
    p.reconRelError = rng.uniform(0.0f, 0.2f);
    return p;
}

bool
sameBits(const float *a, const float *b, int64_t count)
{
    return std::memcmp(a, b, (size_t)count * sizeof(float)) == 0;
}

TEST(InstallWall, FinishAndReconstructMatchReferenceBitForBit)
{
    Rng rng(2424);
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (int64_t n = 1; n <= 9; ++n) {
        // A conv layer (2 filters of 3 x 2 x n, each sliced in two
        // units) and an FC layer whose rows do not divide into groups
        // of n (C % n != 0), so every last row is cut.
        Tensor conv_w({2, 3, 2, n});
        const int64_t c = 3 * n + 1;
        Tensor fc_w({3, c});
        core::CompressionPlan plan;
        core::PlannedLayer conv;
        conv.report.name = "conv";
        conv.weight = &conv_w;
        conv.convKxK = true;
        conv.kernelR = 2;
        conv.kernelS = n;
        core::PlannedLayer fc;
        fc.report.name = "fc";
        fc.weight = &fc_w;
        fc.kernelS = n;
        fc.rowLength = c;
        plan.layers = {conv, fc};

        std::vector<core::SeMatrix> results;
        auto addUnit = [&](size_t layer, int64_t filter, int64_t at,
                           int64_t rows) {
            core::DecompUnit u;
            u.layerIndex = layer;
            u.filter = filter;
            u.rowOffset = at;
            u.matrix = Tensor({rows, n});
            plan.units.push_back(std::move(u));
            results.push_back(
                wallPiece(rng, rows, rng.integer(1, 6), n));
        };
        for (int64_t f = 0; f < 2; ++f) {
            addUnit(0, f, 0, 4);
            addUnit(0, f, 4, 2);
        }
        // FC rows go in descending order, so a last row written past
        // its end would land on a row that is already in place.
        const int64_t fc_rows = (c + n - 1) / n;
        for (int64_t f = 2; f >= 0; --f) {
            addUnit(1, f, 0, 2);
            addUnit(1, f, 2, fc_rows - 2);
        }
        // An all-zero Ce, and a basis carrying Inf and NaN.
        results[1].ce = Tensor(results[1].ce.shape());
        results[2].basis[0] = inf;
        results[2].basis[results[2].basis.size() - 1] = nan;
        results[5].basis[0] = -inf;

        // Expected weights: each reference product copied into place,
        // the FC padding columns dropped.
        Tensor want_conv(conv_w.shape()), want_fc(fc_w.shape());
        const core::PlannedLayer expect_layers[2] = {
            [&] { core::PlannedLayer l = conv; l.weight = &want_conv;
                  return l; }(),
            [&] { core::PlannedLayer l = fc; l.weight = &want_fc;
                  return l; }()};
        for (size_t ui = 0; ui < plan.units.size(); ++ui) {
            const core::DecompUnit &u = plan.units[ui];
            const Tensor ref =
                reference::matmul(results[ui].ce, results[ui].basis);
            const Tensor got = results[ui].reconstruct();
            ASSERT_EQ(got.shape(), ref.shape());
            EXPECT_TRUE(sameBits(got.data(), ref.data(), ref.size()))
                << "reconstruct, n " << n << " unit " << ui;
            const core::PlannedLayer &pl = expect_layers[u.layerIndex];
            for (int64_t i = 0; i < ref.dim(0); ++i) {
                const core::SliceRow at =
                    core::sliceRow(pl, u.filter, u.rowOffset + i);
                std::memcpy(pl.weight->data() + at.offset,
                            ref.data() + i * n,
                            (size_t)at.cols * sizeof(float));
            }
        }

        const core::SeOptions opts;
        const core::CompressionReport rep =
            core::finishCompression(plan, results, opts);
        EXPECT_TRUE(sameBits(conv_w.data(), want_conv.data(),
                             conv_w.size()))
            << "conv install, n " << n;
        EXPECT_TRUE(sameBits(fc_w.data(), want_fc.data(), fc_w.size()))
            << "fc install, n " << n;

        // The report against the per-piece formulas.
        ASSERT_EQ(rep.layers.size(), 2u);
        size_t ui = 0;
        for (size_t li = 0; li < 2; ++li) {
            int64_t rows = 0, zero_rows = 0, elems = 0, zero_elems = 0;
            int64_t ce_bits = 0, basis_bits = 0;
            double err = 0.0;
            int pieces = 0;
            for (; ui < plan.units.size() &&
                   plan.units[ui].layerIndex == li;
                 ++ui, ++pieces) {
                const core::SeMatrix &p = results[ui];
                const int64_t m = p.ce.dim(0), r = p.ce.dim(1);
                rows += m;
                zero_rows += std::llround(p.vectorSparsity() * m);
                elems += m * r;
                zero_elems += std::llround(p.elementSparsity() * m * r);
                ce_bits += p.ceStorageBits(opts.coefBits);
                basis_bits += p.basisStorageBits(opts.basisBits);
                err += p.reconRelError * (double)(m * r);
            }
            const core::LayerReport &l = rep.layers[li];
            EXPECT_TRUE(l.decomposed);
            EXPECT_EQ(l.pieces, pieces);
            EXPECT_EQ(l.ceBits, ce_bits);
            EXPECT_EQ(l.basisBits, basis_bits);
            EXPECT_EQ(l.vectorSparsity, (double)zero_rows / rows);
            EXPECT_EQ(l.elementSparsity, (double)zero_elems / elems);
            EXPECT_EQ(l.reconRelError, err / (double)elems);
        }
    }
}

} // namespace
} // namespace se
