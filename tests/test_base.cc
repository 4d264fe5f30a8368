/**
 * @file
 * Unit tests for the base utilities: bit helpers, RNG determinism,
 * table rendering.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
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

uint32_t
floatBits(float f)
{
    uint32_t u;
    std::memcpy(&u, &f, 4);
    return u;
}

// The engine is the standard's mt19937_64 draw for draw, from every
// seed the library uses and the two ends of the seed range.
TEST(Rng, EngineMatchesStdMt19937_64)
{
    for (uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{42},
                          uint64_t{0x5e5e5e5e}, UINT64_MAX}) {
        Mt19937_64 ours(seed);
        std::mt19937_64 ref(seed);
        int64_t mismatches = 0;
        for (int i = 0; i < 1000000; ++i)
            mismatches += ours() != ref();
        EXPECT_EQ(mismatches, 0) << "seed " << seed;
    }
}

// [rand.predef]: the 10000th consecutive invocation of a
// default-constructed mt19937_64 produces 9981545732273789042.
TEST(Rng, EngineMeetsTheStandardsCheckValue)
{
    Mt19937_64 e;
    for (int i = 1; i < 10000; ++i)
        e();
    EXPECT_EQ(e(), 9981545732273789042ULL);
}

#ifdef __GLIBCXX__
// The reference Rng::gaussian and Rng::uniform reproduce: a fresh
// libstdc++ distribution per draw over std::mt19937_64.
struct ReferenceRng
{
    explicit ReferenceRng(uint64_t seed) : engine(seed) {}

    float
    gaussian(float mean, float stddev)
    {
        std::normal_distribution<float> d(mean, stddev);
        return d(engine);
    }

    float
    uniform(float lo, float hi)
    {
        std::uniform_real_distribution<float> d(lo, hi);
        return d(engine);
    }

    int64_t
    integer(int64_t lo, int64_t hi)
    {
        std::uniform_int_distribution<int64_t> d(lo, hi);
        return d(engine);
    }

    std::mt19937_64 engine;
};

// gaussian() and fillGaussian() give the reference's values bit for
// bit and leave the engine where n reference draws leave it; the
// sizes straddle fillGaussian's 256-output chunk.
TEST(Rng, NormalsMatchPerDrawStdNormalDistribution)
{
    const std::pair<float, float> params[] = {
        {0.0f, 1.0f}, {0.0f, 0.0625f}, {1.5f, 2.0f}, {-3.0f, 0.3f}};
    uint64_t seed = 3;
    for (int64_t n : {0, 1, 255, 256, 257, 4097, 41326}) {
        for (const auto &mp : params) {
            ++seed;
            ReferenceRng ref(seed);
            std::vector<float> want((size_t)n);
            for (float &v : want)
                v = ref.gaussian(mp.first, mp.second);

            Rng filled(seed), single(seed);
            std::vector<float> got((size_t)n + 1, -7.0f);
            filled.fillGaussian(got.data(), n, mp.first, mp.second);
            int64_t bad_fill = 0, bad_single = 0;
            for (int64_t i = 0; i < n; ++i) {
                const uint32_t w = floatBits(want[(size_t)i]);
                bad_fill += floatBits(got[(size_t)i]) != w;
                bad_single +=
                    floatBits(single.gaussian(mp.first, mp.second)) != w;
            }
            EXPECT_EQ(bad_fill, 0) << "n " << n;
            EXPECT_EQ(bad_single, 0) << "n " << n;
            EXPECT_EQ(got[(size_t)n], -7.0f) << "wrote past n " << n;
            const uint64_t next = ref.engine();
            EXPECT_EQ(filled.raw()(), next) << "fill draws, n " << n;
            EXPECT_EQ(single.raw()(), next) << "gaussian draws, n " << n;
        }
    }
}

// A random interleaving of every draw kind keeps Rng in lockstep with
// the reference, outputs and engine state both.
TEST(Rng, InterleavedDrawsTrackTheReference)
{
    std::mt19937 script(77);
    auto pick = [&](int k) { return (int)(script() % (uint32_t)k); };
    Rng rng(0x5e5e5e5e);
    ReferenceRng ref(0x5e5e5e5e);
    std::vector<float> buf;
    for (int op = 0; op < 3000; ++op) {
        // a is a mean or a lower bound, w a stddev or a width.
        const float a = (float)pick(9) - 4.0f;
        const float w = 0.25f * (float)(1 + pick(16));
        switch (pick(5)) {
        case 0: {
            const int64_t n = pick(4) == 0 ? pick(3) : pick(700);
            buf.assign((size_t)n, 0.0f);
            rng.fillGaussian(buf.data(), n, a, w);
            for (int64_t i = 0; i < n; ++i)
                ASSERT_EQ(floatBits(buf[(size_t)i]),
                          floatBits(ref.gaussian(a, w)))
                    << "op " << op << " i " << i;
            break;
        }
        case 1:
            ASSERT_EQ(floatBits(rng.gaussian(a, w)),
                      floatBits(ref.gaussian(a, w)))
                << "op " << op;
            break;
        case 2:
            ASSERT_EQ(floatBits(rng.uniform(a, a + w)),
                      floatBits(ref.uniform(a, a + w)))
                << "op " << op;
            break;
        case 3: {
            const int64_t lo = pick(3) == 0 ? INT64_MIN : -pick(50);
            const int64_t hi = pick(3) == 0 ? INT64_MAX : pick(1000);
            ASSERT_EQ(rng.integer(lo, hi), ref.integer(lo, hi))
                << "op " << op;
            break;
        }
        default: {
            const double p = pick(100) / 100.0;
            ASSERT_EQ(rng.chance(p), ref.uniform(0.0f, 1.0f) < p)
                << "op " << op;
            break;
        }
        }
    }
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(rng.raw()(), ref.engine()) << "draw " << i;
}

// Replays a fixed list of raw draws, so the rare edges of the
// canonical float and of the polar method can be pinned against the
// library's own algorithms.
struct ScriptedUrbg
{
    using result_type = uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return UINT64_MAX; }

    result_type operator()() { return draws.at(pos++); }

    std::vector<uint64_t> draws;
    size_t pos = 0;
};

TEST(Rng, CanonicalFloatMatchesGenerateCanonicalAtTheEdges)
{
    const uint64_t top = uint64_t{1} << 63;
    const uint64_t clamp_lo = UINT64_MAX - ((uint64_t{1} << 39) - 1);
    const float below_one = std::nextafter(1.0f, 0.0f);
    // 2^63 + 2^39 ties to even (down); one more rounds up only if the
    // halved conversion keeps the shifted-out bit.
    for (uint64_t raw : {uint64_t{0}, uint64_t{1}, top - 1, top,
                         top + (uint64_t{1} << 39),
                         top + (uint64_t{1} << 39) + 1, clamp_lo - 1,
                         clamp_lo, UINT64_MAX,
                         uint64_t{0x9e3779b97f4a7c15}}) {
        ScriptedUrbg g{{raw}};
        const float want = std::generate_canonical<float, 24>(g);
        EXPECT_EQ(floatBits(canonicalFloat(raw)), floatBits(want))
            << "raw " << raw;
    }
    // The last two round to 2^64 and take the clamp; the draw just
    // below them rounds to 2^64 - 2^40, the same float unclamped.
    EXPECT_EQ(canonicalFloat(clamp_lo), below_one);
    EXPECT_EQ(canonicalFloat(UINT64_MAX), below_one);
    EXPECT_EQ(canonicalFloat(clamp_lo - 1), below_one);
}

TEST(Rng, PolarStepMatchesNormalDistributionOnScriptedDraws)
{
    const uint64_t half = uint64_t{1} << 63;
    const uint64_t quarter = uint64_t{1} << 62;
    const uint64_t near_max = UINT64_MAX - 12345;
    // Each script ends in an accepted pair; the leading pairs are the
    // edges: r2 == 0 (both variates 0) and r2 > 1 (both near 1) are
    // rejected, r2 == 1 exactly (x = -1, y = 0) is accepted.
    const std::vector<std::vector<uint64_t>> scripts = {
        {half, half, quarter, 3 * quarter},
        {near_max, near_max, quarter, 3 * quarter},
        {near_max, UINT64_MAX, half, half, 0x923456789abcdefULL,
         0x7edcba9876543210ULL},
        {0, half, quarter, 3 * quarter},
        {quarter, 3 * quarter, half, half}};
    for (size_t s = 0; s < scripts.size(); ++s) {
        for (const auto &mp : {std::pair<float, float>{0.0f, 1.0f},
                               std::pair<float, float>{-0.5f, 3.0f}}) {
            ScriptedUrbg ref{scripts[s]};
            std::normal_distribution<float> d(mp.first, mp.second);
            const float want = d(ref);

            ScriptedUrbg ours{scripts[s]};
            float y = 0.0f, r2 = 0.0f, got = 0.0f;
            for (;;) {
                const uint64_t a = ours(), b = ours();
                if (detail::polarTrial(a, b, y, r2)) {
                    got = detail::polarValue(y, r2, mp.first, mp.second);
                    break;
                }
            }
            EXPECT_EQ(floatBits(got), floatBits(want)) << "script " << s;
            EXPECT_EQ(ours.pos, ref.pos) << "script " << s;
        }
    }
}
#endif // __GLIBCXX__

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
