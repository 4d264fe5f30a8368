/**
 * @file
 * Unit and property tests for the quantization primitives: power-of-2
 * projection, fixed-point quantization, Booth encoding and the Fig. 4
 * bit-level sparsity statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "base/random.hh"
#include "pow2_oracle.hh"
#include "quant/quant.hh"

namespace se {
namespace {

using quant::boothDigits;
using quant::boothNonzeroDigits;
using quant::choosePow2Alphabet;
using quant::essentialBits;
using quant::FixedPointQuantizer;
using quant::measureBitSparsity;
using quant::Pow2Alphabet;
using quant::projectPow2;
using quant::projectPow2InPlace;

TEST(Pow2Alphabet, ProjectsExactPowers)
{
    Pow2Alphabet a{0, 7};  // exponents -6..0
    EXPECT_FLOAT_EQ(a.project(1.0f), 1.0f);
    EXPECT_FLOAT_EQ(a.project(0.5f), 0.5f);
    EXPECT_FLOAT_EQ(a.project(-0.25f), -0.25f);
    EXPECT_FLOAT_EQ(a.project(0.0f), 0.0f);
}

TEST(Pow2Alphabet, RoundsToNearestLinear)
{
    Pow2Alphabet a{2, 7};
    EXPECT_FLOAT_EQ(a.project(2.9f), 2.0f);
    EXPECT_FLOAT_EQ(a.project(3.1f), 4.0f);
    EXPECT_FLOAT_EQ(a.project(-1.4f), -1.0f);
}

TEST(Pow2Alphabet, ClampsToRange)
{
    Pow2Alphabet a{0, 4};  // exponents -3..0
    EXPECT_FLOAT_EQ(a.project(8.0f), 1.0f);     // clamp to 2^0
    // Below half of the smallest power collapses to zero.
    EXPECT_FLOAT_EQ(a.project(0.01f), 0.0f);
    EXPECT_FLOAT_EQ(a.project(0.09f), 0.125f);  // just above half
}

TEST(Pow2Alphabet, ContainsMembershipIsExact)
{
    Pow2Alphabet a{0, 4};
    EXPECT_TRUE(a.contains(0.0f));
    EXPECT_TRUE(a.contains(1.0f));
    EXPECT_TRUE(a.contains(-0.125f));
    EXPECT_FALSE(a.contains(0.3f));
    EXPECT_FALSE(a.contains(2.0f));   // exponent out of range
    EXPECT_FALSE(a.contains(0.0625f));
}

/**
 * Exact-projection wall: Pow2Alphabet::project and the fused
 * projectPow2InPlace must match the log2/lround oracle bit for bit
 * (signed zeros included) for every expMax in [-150, 127] and 1, 7
 * and 31 levels, and the fused pass's distance must equal the
 * oracle's sum |x - project(x)| taken in index order. Inputs are the
 * 64-ulp neighbourhoods of oracle::appendNeighbourhoods for every
 * exponent from two below the alphabet to two above it — outside that
 * window values only collapse to zero or clamp — plus the extreme
 * exponents, both signs and +-0.
 */
TEST(Pow2Alphabet, ProjectionMatchesLog2OracleBitForBit)
{
    for (int levels : {1, 7, 31}) {
        for (int exp_max = -150; exp_max <= 127; ++exp_max) {
            const Pow2Alphabet a{exp_max, levels};
            std::set<int> exps = {-149, -126, 0, 127};
            for (int e = std::max(-149, a.expMin() - 2);
                 e <= std::min(127, exp_max + 2); ++e)
                exps.insert(e);
            std::vector<float> xs = {0.0f, -0.0f};
            for (int e : exps)
                oracle::appendNeighbourhoods(xs, e, 64);

            Tensor t({(int64_t)xs.size()}, xs);
            const double delta = projectPow2InPlace(t, a);
            double want_delta = 0.0;
            for (size_t i = 0; i < xs.size(); ++i) {
                const float want = oracle::project(a, xs[i]);
                want_delta += std::abs((double)xs[i] - want);
                ASSERT_EQ(oracle::bitsOf(a.project(xs[i])),
                          oracle::bitsOf(want))
                    << std::hexfloat << xs[i] << " expMax " << exp_max
                    << " levels " << levels;
                ASSERT_EQ(oracle::bitsOf(t[(int64_t)i]),
                          oracle::bitsOf(want))
                    << std::hexfloat << xs[i] << " expMax " << exp_max
                    << " levels " << levels;
            }
            ASSERT_EQ(delta, want_delta)
                << "expMax " << exp_max << " levels " << levels;
        }
    }
}

TEST(Pow2Alphabet, ProjectPow2CopyMatchesInPlace)
{
    Rng rng(3);
    Tensor t = randn({300}, rng, 0.0f, 2.0f);
    const Pow2Alphabet a = choosePow2Alphabet(t, 4);
    const Tensor copy = projectPow2(t, a);
    Tensor in_place = t;
    projectPow2InPlace(in_place, a);
    for (int64_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(oracle::bitsOf(copy[i]), oracle::bitsOf(in_place[i]));
}

/**
 * The row-restricted alphabet choice and projection read and write
 * the listed rows only, and equal the whole-tensor ones bit for bit
 * (distance included) when every other row is +0 — the invariant the
 * decomposition loop's live-row skipping relies on.
 */
TEST(Pow2Alphabet, RowRestrictedOpsMatchWholeTensorOnZeroRows)
{
    Rng rng(5);
    const int64_t m = 40, r = 3;
    const Tensor t = randn({m, r}, rng, 0.0f, 0.3f);
    std::vector<int64_t> rows;
    for (int64_t i = 0; i < m; ++i)
        if (rng.chance(0.5))
            rows.push_back(i);
    Tensor zeroed({m, r});
    for (int64_t i : rows)
        for (int64_t j = 0; j < r; ++j)
            zeroed.at(i, j) = t.at(i, j);

    // t's unlisted rows hold non-zero values the row ops must ignore.
    const Pow2Alphabet a = choosePow2Alphabet(t, rows, 4);
    const Pow2Alphabet want = choosePow2Alphabet(zeroed, 4);
    EXPECT_EQ(a.expMax, want.expMax);
    EXPECT_EQ(a.numLevels, want.numLevels);

    Tensor got = t;
    const double delta = projectPow2InPlace(got, rows, a);
    const double want_delta = projectPow2InPlace(zeroed, want);
    EXPECT_EQ(delta, want_delta);
    size_t q = 0;
    for (int64_t i = 0; i < m; ++i) {
        const bool listed = q < rows.size() && rows[q] == i;
        q += listed;
        for (int64_t j = 0; j < r; ++j)
            EXPECT_EQ(oracle::bitsOf(got.at(i, j)),
                      oracle::bitsOf(listed ? zeroed.at(i, j) : t.at(i, j)))
                << "row " << i;
    }

    EXPECT_DEATH(choosePow2Alphabet(t, {3, 2}, 4),
                 "ascending and in range");
    EXPECT_DEATH(projectPow2InPlace(got, {0, m}, a),
                 "ascending and in range");
}

TEST(Pow2Alphabet, ProjectionIsIdempotent)
{
    Rng rng(1);
    Tensor t = randn({200}, rng);
    auto a = choosePow2Alphabet(t, 4);
    Tensor once = projectPow2(t, a);
    Tensor twice = projectPow2(once, a);
    for (int64_t i = 0; i < t.size(); ++i)
        EXPECT_FLOAT_EQ(once[i], twice[i]);
}

TEST(Pow2Alphabet, AllProjectedValuesAreMembers)
{
    Rng rng(2);
    Tensor t = randn({500}, rng, 0.0f, 3.0f);
    auto a = choosePow2Alphabet(t, 4);
    Tensor p = projectPow2(t, a);
    for (int64_t i = 0; i < p.size(); ++i)
        EXPECT_TRUE(a.contains(p[i])) << "value " << p[i];
}

TEST(Pow2Alphabet, FourBitBudgetGivesSevenLevels)
{
    Tensor t({4}, std::vector<float>{1.0f, 0.5f, -0.25f, 2.0f});
    auto a = choosePow2Alphabet(t, 4);
    EXPECT_EQ(a.numLevels, 7);
    EXPECT_EQ(a.expMax, 1);
    EXPECT_EQ(a.expMin(), -5);
}

TEST(FixedPoint, RoundTripWithinHalfLsb)
{
    Rng rng(3);
    Tensor t = randn({300}, rng);
    auto q = FixedPointQuantizer::calibrate(t, 8);
    for (int64_t i = 0; i < t.size(); ++i) {
        const float back = q.toFloat(q.toInt(t[i]));
        EXPECT_NEAR(back, t[i], q.scale * 0.5f + 1e-6f);
    }
}

TEST(FixedPoint, SaturatesAtRangeEnds)
{
    Tensor t({2}, std::vector<float>{1.0f, -1.0f});
    auto q = FixedPointQuantizer::calibrate(t, 8);
    EXPECT_EQ(q.toInt(10.0f), 127);
    EXPECT_EQ(q.toInt(-10.0f), -127);
}

TEST(FixedPoint, ZeroTensorGetsUnitScale)
{
    Tensor t({4}, 0.0f);
    auto q = FixedPointQuantizer::calibrate(t, 8);
    EXPECT_FLOAT_EQ(q.scale, 1.0f);
    EXPECT_EQ(q.toInt(0.0f), 0);
}

TEST(Booth, ZeroHasNoDigits)
{
    EXPECT_EQ(boothNonzeroDigits(0, 8), 0);
}

TEST(Booth, DigitsReconstructValue)
{
    // Radix-4 digits d_i reconstruct v = sum d_i * 4^i.
    for (int v = -128; v <= 127; ++v) {
        auto digits = boothDigits(v, 8);
        int64_t acc = 0, base = 1;
        for (int d : digits) {
            acc += (int64_t)d * base;
            base *= 4;
        }
        EXPECT_EQ(acc, v) << "value " << v;
    }
}

TEST(Booth, DigitCountBounds)
{
    for (int v = -128; v <= 127; ++v) {
        const int n = boothNonzeroDigits(v, 8);
        EXPECT_GE(n, 0);
        EXPECT_LE(n, 4);
    }
}

TEST(Booth, PowersOfTwoNeedOneDigit)
{
    for (int p = 0; p <= 6; ++p)
        EXPECT_LE(boothNonzeroDigits(1 << p, 8), 2)
            << "2^" << p;
    EXPECT_EQ(boothNonzeroDigits(1, 8), 1);
    EXPECT_EQ(boothNonzeroDigits(4, 8), 1);
    EXPECT_EQ(boothNonzeroDigits(16, 8), 1);
}

TEST(Booth, RunsOfOnesAreCheap)
{
    // 0b01111111 = 127 = 128 - 1: two Booth digits vs seven plain bits.
    EXPECT_EQ(essentialBits(127, 8), 7);
    EXPECT_LE(boothNonzeroDigits(127, 8), 2);
}

TEST(EssentialBits, MatchesPopcountOfMagnitude)
{
    EXPECT_EQ(essentialBits(0, 8), 0);
    EXPECT_EQ(essentialBits(5, 8), 2);
    EXPECT_EQ(essentialBits(-5, 8), 2);
    EXPECT_EQ(essentialBits(127, 8), 7);
}

TEST(BitSparsity, AllZerosTensor)
{
    Tensor t({64}, 0.0f);
    auto s = measureBitSparsity(t, 8);
    EXPECT_DOUBLE_EQ(s.valueSparsity, 1.0);
    EXPECT_DOUBLE_EQ(s.plainBitSparsity, 1.0);
    EXPECT_DOUBLE_EQ(s.boothBitSparsity, 1.0);
}

TEST(BitSparsity, ReluLikeActivationsShowHighBitSparsity)
{
    // Half zeros + small positive values: bit sparsity must be high,
    // and Booth digit sparsity lower than plain bit sparsity (fewer
    // total digit slots), reproducing the Fig. 4 relationship.
    Rng rng(4);
    Tensor t({4000});
    for (int64_t i = 0; i < t.size(); ++i) {
        const float v = rng.gaussian(0.0f, 0.3f);
        t[i] = v > 0 ? v : 0.0f;
    }
    auto s = measureBitSparsity(t, 8);
    EXPECT_GT(s.plainBitSparsity, 0.6);
    EXPECT_GT(s.boothBitSparsity, 0.4);
    EXPECT_LT(s.boothBitSparsity, s.plainBitSparsity);
    EXPECT_GT(s.valueSparsity, 0.3);
}

TEST(BitSparsity, AveragesConsistentWithSparsities)
{
    Rng rng(5);
    Tensor t = randn({1000}, rng);
    auto s = measureBitSparsity(t, 8);
    EXPECT_NEAR(s.avgEssentialBits, (1.0 - s.plainBitSparsity) * 8.0,
                1e-9);
    EXPECT_NEAR(s.avgBoothDigits, (1.0 - s.boothBitSparsity) * 4.0,
                1e-9);
}

/** Parameterized sweep over bit widths. */
class FixedPointSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(FixedPointSweep, QuantizationErrorShrinksWithBits)
{
    const int bits = GetParam();
    Rng rng(6);
    Tensor t = randn({2000}, rng);
    auto q = FixedPointQuantizer::calibrate(t, bits);
    auto q2 = FixedPointQuantizer::calibrate(t, bits + 2);
    double err = 0.0, err2 = 0.0;
    for (int64_t i = 0; i < t.size(); ++i) {
        err += std::abs(q.toFloat(q.toInt(t[i])) - t[i]);
        err2 += std::abs(q2.toFloat(q2.toInt(t[i])) - t[i]);
    }
    EXPECT_LT(err2, err);
}

INSTANTIATE_TEST_SUITE_P(Bits, FixedPointSweep,
                         ::testing::Values(2, 3, 4, 6, 8, 10));

} // namespace
} // namespace se
