/**
 * @file
 * Cross-module property tests: invariants that must hold across the
 * whole stack rather than within one module.
 */

#include <gtest/gtest.h>

#include "accel/annotate.hh"
#include "accel/baselines.hh"
#include "accel/smartexchange_accel.hh"
#include "base/random.hh"
#include "core/smart_exchange.hh"
#include "kernels/gemm.hh"
#include "models/zoo.hh"
#include "quant/quant.hh"

namespace se {
namespace {

using models::ModelId;

TEST(Properties, RunNetworkIsSumOfLayers)
{
    accel::SmartExchangeAccel acc;
    auto w = accel::annotatedWorkload(ModelId::ResNet164);
    sim::RunStats manual;
    for (const auto &l : w.layers)
        manual += acc.runLayer(l);
    auto st = acc.runNetwork(w, true);
    EXPECT_EQ(st.cycles, manual.cycles);
    EXPECT_DOUBLE_EQ(st.totalEnergyPj(), manual.totalEnergyPj());
    EXPECT_EQ(st.dramTrafficBits, manual.dramTrafficBits);
}

TEST(Properties, AcceleratorRunsAreDeterministic)
{
    for (ModelId id : {ModelId::VGG11, ModelId::MobileNetV2}) {
        auto w = accel::annotatedWorkload(id);
        accel::SmartExchangeAccel a, b;
        auto s1 = a.runNetwork(w, false);
        auto s2 = b.runNetwork(w, false);
        EXPECT_EQ(s1.cycles, s2.cycles);
        EXPECT_DOUBLE_EQ(s1.totalEnergyPj(), s2.totalEnergyPj());
    }
}

TEST(Properties, SparsityProfilesAreWellFormed)
{
    for (ModelId id : models::acceleratorBenchmarkModels()) {
        auto p = accel::defaultProfile(id);
        EXPECT_GE(p.weightVectorSparsity, 0.0);
        EXPECT_LE(p.weightVectorSparsity, 1.0);
        EXPECT_GE(p.weightElementSparsity,
                  p.weightVectorSparsity - 1e-9)
            << models::modelName(id)
            << ": element sparsity must cover vector sparsity";
        EXPECT_GT(p.actAvgBoothDigits, 0.0);
        EXPECT_LE(p.actAvgBoothDigits, 4.0);
        EXPECT_LE(p.actAvgEssentialBits, 8.0);
    }
}

TEST(Properties, TrainedWeightsDecomposeBetterThanRandom)
{
    // Structured (smooth) weights should reconstruct at least as well
    // as i.i.d. noise under the same budget — the redundancy argument
    // behind the whole compression literature.
    Rng rng(3);
    Tensor random = randn({96, 3}, rng, 0.0f, 0.1f);
    // "Trained-like": low-rank structure plus small noise.
    Tensor u = randn({96, 2}, rng, 0.0f, 0.3f);
    Tensor v = randn({2, 3}, rng, 0.0f, 0.3f);
    Tensor structured = kernels::gemm(u, v);
    for (int64_t i = 0; i < structured.size(); ++i)
        structured[i] += rng.gaussian(0.0f, 0.005f);

    core::SeOptions opts;
    auto se_rand = core::decomposeMatrix(random, opts);
    auto se_struct = core::decomposeMatrix(structured, opts);
    EXPECT_LT(se_struct.reconRelError, se_rand.reconRelError);
}

TEST(Properties, CompressionMonotoneInSparsityBudget)
{
    Rng rng(4);
    Tensor w = randn({120, 3}, rng, 0.0f, 0.1f);
    double prev_bits = 1e18;
    for (double target : {0.0, 0.3, 0.6, 0.9}) {
        core::SeOptions opts;
        opts.minVectorSparsity = target;
        auto sem = core::decomposeMatrix(w, opts);
        const double bits =
            (double)(sem.ceStorageBits(4) + sem.basisStorageBits(8));
        EXPECT_LE(bits, prev_bits + 1e-9);
        prev_bits = bits;
    }
}

TEST(Properties, ErrorMonotoneInSparsityBudget)
{
    // More pruning cannot improve the fit (on average it degrades);
    // allow small slack for the heuristic's non-optimality.
    Rng rng(5);
    Tensor w = randn({120, 3}, rng, 0.0f, 0.1f);
    core::SeOptions loose, tight;
    loose.minVectorSparsity = 0.1;
    tight.minVectorSparsity = 0.8;
    auto a = core::decomposeMatrix(w, loose);
    auto b = core::decomposeMatrix(w, tight);
    EXPECT_GE(b.reconRelError, a.reconRelError - 0.05);
}

TEST(Properties, BoothDigitBounds)
{
    // Each set bit of the magnitude influences at most the two digit
    // windows it straddles, so non-zero Booth digits <= 2 * popcount;
    // and radix-4 recoding of n bits never emits more than ceil(n/2)
    // digits. Both bounds hold over the full 8-bit range.
    for (int v = -128; v <= 127; ++v) {
        const int digits = quant::boothNonzeroDigits(v, 8);
        EXPECT_LE(digits, 4) << "v=" << v;
        if (v != 0) {
            EXPECT_LE(digits, 2 * (quant::essentialBits(v, 8) + 1))
                << "v=" << v;
            EXPECT_GE(digits, 1) << "v=" << v;
        }
    }
}

TEST(Properties, PaperWorkloadsStableAcrossCalls)
{
    for (ModelId id : {ModelId::ResNet50, ModelId::EfficientNetB0}) {
        auto a = models::paperShapes(id);
        auto b = models::paperShapes(id);
        ASSERT_EQ(a.layers.size(), b.layers.size());
        EXPECT_EQ(a.totalMacs(), b.totalMacs());
        EXPECT_EQ(a.totalWeights(), b.totalWeights());
    }
}

TEST(Properties, EnergyBreakdownSumsToTotal)
{
    accel::SmartExchangeAccel acc;
    auto w = accel::annotatedWorkload(ModelId::VGG19);
    auto st = acc.runNetwork(w, true);
    double sum = 0.0;
    for (size_t c = 0; c < sim::kNumComponents; ++c)
        sum += st.energyPj[c];
    EXPECT_NEAR(sum, st.totalEnergyPj(), 1e-6 * sum);
}

TEST(Properties, AllAcceleratorsChargeSameTableIForDram)
{
    // Methodological fairness: a byte of DRAM costs every
    // accelerator the same.
    sim::LayerShape l;
    l.kind = sim::LayerKind::Conv;
    l.c = 16;
    l.m = 16;
    l.h = l.w = 8;
    l.r = l.s = 3;
    l.pad = 1;
    accel::DianNao dn;
    accel::BitPragmatic bp;
    auto a = dn.runLayer(l);
    auto b = bp.runLayer(l);
    // Identical dense-weight traffic at identical unit energy.
    EXPECT_DOUBLE_EQ(a.energy(sim::Component::DramWeight),
                     b.energy(sim::Component::DramWeight));
}

} // namespace
} // namespace se
