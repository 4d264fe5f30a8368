/**
 * @file
 * Unit tests for the base utilities: bit helpers, RNG determinism,
 * table rendering.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <sstream>
#include <vector>

#include "base/bitutils.hh"
#include "base/random.hh"
#include "base/table.hh"
#include "pow2_oracle.hh"

namespace se {
namespace {

TEST(BitUtils, Popcount)
{
    EXPECT_EQ(popcount(0), 0);
    EXPECT_EQ(popcount(1), 1);
    EXPECT_EQ(popcount(0xFF), 8);
    EXPECT_EQ(popcount(0xF0F0F0F0F0F0F0F0ULL), 32);
}

TEST(BitUtils, IsPow2)
{
    EXPECT_FALSE(isPow2(0));
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_FALSE(isPow2(3));
    EXPECT_TRUE(isPow2(1ULL << 40));
    EXPECT_FALSE(isPow2((1ULL << 40) + 1));
}

TEST(BitUtils, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0);
    EXPECT_EQ(ceilLog2(2), 1);
    EXPECT_EQ(ceilLog2(3), 2);
    EXPECT_EQ(ceilLog2(1024), 10);
    EXPECT_EQ(ceilLog2(1025), 11);
}

TEST(BitUtils, CeilDiv)
{
    EXPECT_EQ(ceilDiv(10, 5), 2);
    EXPECT_EQ(ceilDiv(11, 5), 3);
    EXPECT_EQ(ceilDiv(1, 8), 1);
}

TEST(BitUtils, NearestPow2ExpExactPowers)
{
    EXPECT_EQ(nearestPow2Exp(1.0), 0);
    EXPECT_EQ(nearestPow2Exp(2.0), 1);
    EXPECT_EQ(nearestPow2Exp(0.5), -1);
    EXPECT_EQ(nearestPow2Exp(0.25), -2);
    EXPECT_EQ(nearestPow2Exp(-4.0), 2);
}

TEST(BitUtils, NearestPow2ExpLinearDistance)
{
    // 3.0 is at distance 1 from both 2 and 4: ties round up (mantissa
    // 1.5 >= 1.5). 2.9 is closer to 2.
    EXPECT_EQ(nearestPow2Exp(3.0), 2);
    EXPECT_EQ(nearestPow2Exp(2.9), 1);
    EXPECT_EQ(nearestPow2Exp(3.1), 2);
    // 1.4 closer to 1; 1.6 closer to 2.
    EXPECT_EQ(nearestPow2Exp(1.4), 0);
    EXPECT_EQ(nearestPow2Exp(1.6), 1);
}

/**
 * Exact-projection wall: the bit-level rule must agree with the
 * log2/lround oracle on every float exponent (denormals included) and
 * on the double range, within 64 ulps of the mantissas where the
 * answer changes (1.0, sqrt(2), 1.5, max), for both signs.
 */
TEST(BitUtils, NearestPow2ExpMatchesLog2Oracle)
{
    std::vector<float> fs;
    for (int e = -149; e <= 127; ++e)
        oracle::appendNeighbourhoods(fs, e, 64);
    ASSERT_GT(fs.size(), 250000u);
    for (float x : fs)
        ASSERT_EQ(nearestPow2Exp(x), oracle::nearestPow2Exp(x))
            << std::hexfloat << x;

    std::vector<double> ds;
    for (int e = -1074; e <= 1022; ++e)
        oracle::appendNeighbourhoods(ds, e, 64);
    for (double x : ds)
        ASSERT_EQ(nearestPow2Exp(x), oracle::nearestPow2Exp(x))
            << std::hexfloat << x;
}

TEST(BitUtils, NearestPow2ExpAtTheEdgesOfTheRange)
{
    // Smallest denormals: 2^-149 itself, and 3 * 2^-149 (mantissa 1.5,
    // ties up to 2^-147).
    EXPECT_EQ(nearestPow2Exp(std::ldexp(1.0f, -149)), -149);
    EXPECT_EQ(nearestPow2Exp(std::ldexp(3.0f, -149)), -147);
    EXPECT_EQ(nearestPow2Exp(std::ldexp(1.0, -1074)), -1074);
    EXPECT_EQ(nearestPow2Exp(FLT_MAX), 128);
    // Beyond the float range the rule keeps going where the log2
    // oracle cannot: 2^1024 is not a finite double, so the oracle's
    // distance compare keeps 1023 for DBL_MAX. No caller reaches this
    // range (alphabets are chosen from float magnitudes).
    EXPECT_EQ(nearestPow2Exp(DBL_MAX), 1024);
    EXPECT_EQ(nearestPow2Exp(std::ldexp(1.25, 1023)), 1023);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const float v = rng.uniform(-2.0f, 3.0f);
        EXPECT_GE(v, -2.0f);
        EXPECT_LT(v, 3.0f);
    }
}

TEST(Rng, IntegerRangeInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const int64_t v = rng.integer(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    double sum = 0.0, sum2 = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.gaussian(1.0f, 2.0f);
        sum += v;
        sum2 += v * v;
    }
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, 1.0, 0.1);
    EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"model", "value"});
    t.row().cell("VGG11").cell(1.5, 1);
    t.row().cell("x").cell((int64_t)42);
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("model"), std::string::npos);
    EXPECT_NE(out.find("VGG11"), std::string::npos);
    EXPECT_NE(out.find("1.5"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
}

} // namespace
} // namespace se
