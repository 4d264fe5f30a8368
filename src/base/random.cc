#include "base/random.hh"

#include <cmath>

namespace se {

namespace {

// The standard's mt19937_64 parameters ([rand.predef]).
constexpr int kM = 156;
constexpr uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr uint64_t kUpperMask = ~(uint64_t)0 << 31;
constexpr uint64_t kLowerMask = ~kUpperMask;
constexpr uint64_t kInitMult = 6364136223846793005ULL;

inline uint64_t
twist(uint64_t cur, uint64_t next, uint64_t far)
{
    const uint64_t y = (cur & kUpperMask) | (next & kLowerMask);
    return far ^ (y >> 1) ^ (((uint64_t)0 - (y & 1)) & kMatrixA);
}

inline uint64_t
temper(uint64_t z)
{
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
}

} // namespace

Mt19937_64::Mt19937_64(uint64_t seed) : idx_(kN)
{
    state_[0] = seed;
    for (int i = 1; i < kN; ++i) {
        const uint64_t prev = state_[i - 1];
        state_[i] = kInitMult * (prev ^ (prev >> 62)) + (uint64_t)i;
    }
}

void
Mt19937_64::refill()
{
    // The standard's in-place twist, tempering each word as soon as it
    // is final.
    uint64_t *x = state_;
    int k = 0;
    for (; k < kN - kM; ++k) {
        x[k] = twist(x[k], x[k + 1], x[k + kM]);
        out_[k] = temper(x[k]);
    }
    for (; k < kN - 1; ++k) {
        x[k] = twist(x[k], x[k + 1], x[k + kM - kN]);
        out_[k] = temper(x[k]);
    }
    x[kN - 1] = twist(x[kN - 1], x[0], x[kM - 1]);
    out_[kN - 1] = temper(x[kN - 1]);
    idx_ = 0;
}

namespace detail {

bool
polarTrial(uint64_t a, uint64_t b, float &y, float &r2)
{
    const float x = 2.0f * canonicalFloat(a) - 1.0;
    y = 2.0f * canonicalFloat(b) - 1.0;
    r2 = x * x + y * y;
    return (r2 <= 1.0f) & (r2 != 0.0f);
}

float
polarValue(float y, float r2, float mean, float stddev)
{
    const float mult = std::sqrt(-2 * std::log(r2) / r2);
    const float ret = y * mult;
    return ret * stddev + mean;
}

} // namespace detail

float
Rng::uniform(float lo, float hi)
{
    return canonicalFloat(engine()) * (hi - lo) + lo;
}

void
Rng::fillGaussian(float *out, int64_t n, float mean, float stddev)
{
    constexpr int kChunk = 256;
    float ys[kChunk], r2s[kChunk];
    while (n > 0) {
        const int m = n < kChunk ? (int)n : kChunk;
        // Phase 1: draw pairs until m are accepted. Every pair is
        // stored; a rejected one is overwritten by the next, so the
        // loop stops on exactly the draws m gaussian() calls consume.
        int k = 0;
        while (k < m) {
            const uint64_t a = engine();
            const uint64_t b = engine();
            k += (int)detail::polarTrial(a, b, ys[k], r2s[k]);
        }
        // Phase 2: the polar transform of the accepted pairs; the x
        // variate is the distribution's discarded second output.
        for (int j = 0; j < m; ++j)
            out[j] = detail::polarValue(ys[j], r2s[j], mean, stddev);
        out += m;
        n -= m;
    }
}

} // namespace se
