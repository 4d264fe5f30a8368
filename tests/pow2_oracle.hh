/**
 * @file
 * Test-only reference for the power-of-2 projection: the log-domain
 * formula the library used before the exact bit-level rule (round
 * log2|x|, then fix the linear-distance neighbour), kept as the oracle
 * the exact rule is diffed against, plus generators of the
 * floating-point neighbourhoods where the two could disagree.
 */

#ifndef SE_TESTS_POW2_ORACLE_HH
#define SE_TESTS_POW2_ORACLE_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "quant/quant.hh"

namespace se {
namespace oracle {

/** nearestPow2Exp as log2 + lround + linear neighbour correction. */
inline int
nearestPow2Exp(double x)
{
    double ax = std::abs(x);
    int p = (int)std::lround(std::log2(ax));
    double best = std::abs(ax - std::ldexp(1.0, p));
    for (int dp : {-1, 1}) {
        double cand = std::abs(ax - std::ldexp(1.0, p + dp));
        if (cand < best) {
            best = cand;
            p += dp;
        }
    }
    return p;
}

/** Pow2Alphabet::project on top of the oracle exponent. */
inline float
project(const quant::Pow2Alphabet &a, float x)
{
    if (x == 0.0f)
        return 0.0f;
    int p = nearestPow2Exp(x);
    p = std::clamp(p, a.expMin(), a.expMax);
    float mag = std::ldexp(1.0f, p);
    float smallest = std::ldexp(1.0f, a.expMin());
    if (std::abs(x) < smallest * 0.5f)
        return 0.0f;
    return x > 0 ? mag : -mag;
}

/** Bit pattern of a float / double (to compare signed zeros too). */
inline uint32_t
bitsOf(float x)
{
    uint32_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

inline uint64_t
bitsOf(double x)
{
    uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

/**
 * Append, for both signs, the positive finite values within `ulps`
 * ulps of m * 2^e for the mantissas the rule turns on: 1.0 (the power
 * itself), sqrt(2) (where log2 rounding flips), 1.5 (the linear tie)
 * and the largest mantissa below 2. Denormal exponents are included:
 * there the anchors round to the nearest denormal.
 */
template <typename F>
void
appendNeighbourhoods(std::vector<F> &out, int e, int ulps)
{
    using U = decltype(bitsOf(F{}));
    const F anchors[] = {F(1), std::sqrt(F(2)), F(1.5),
                         std::nextafter(F(2), F(1))};
    const U inf = bitsOf(std::numeric_limits<F>::infinity());
    for (F m : anchors) {
        const U u0 = bitsOf(std::ldexp(m, e));
        for (int d = -ulps; d <= ulps; ++d) {
            if (d < 0 && u0 < (U)-d)
                continue;
            const U u = u0 + (U)(int64_t)d;
            if (u == 0 || u >= inf)
                continue;
            F x;
            std::memcpy(&x, &u, sizeof x);
            out.push_back(x);
            out.push_back(-x);
        }
    }
}

} // namespace oracle
} // namespace se

#endif // SE_TESTS_POW2_ORACLE_HH
