/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component in the library draws from an explicitly
 * seeded Rng so that experiments and tests are bit-reproducible.
 *
 * Determinism contract. The bytes a seed produces are pinned by the
 * goldens, the decomposition digests and the v4 bundle walls, so both
 * halves of the generator are written out here rather than borrowed:
 *
 *  - Mt19937_64 is the C++ standard's mt19937_64 bit for bit: the
 *    same seeding recurrence, twist and tempering, so it equals
 *    std::mt19937_64 draw for draw (tests/test_base.cc walls it over
 *    10^6 draws and the standard's 10000th-output check).
 *  - Rng::gaussian is libstdc++'s polar method with a fresh
 *    normal_distribution per draw: the second variate of each
 *    accepted pair is discarded, a rejected pair still consumes its
 *    two draws, and the canonical float is generate_canonical<float,
 *    24>'s division by 2^64 with its nextafter clamp.
 *    Rng::uniform is uniform_real_distribution<float>'s u*(hi-lo)+lo
 *    over that same canonical float.
 *
 * Keeping both in-house buys speed (the engine tempers a whole
 * 312-word block in one pass, and fillGaussian batches the polar
 * method so its accept loop and its log/sqrt loop run apart, about
 * 3x the old per-draw distribution on a model's init) and outputs
 * that no longer depend on the standard library's choice of
 * algorithm. std::mt19937_64 and std::normal_distribution<float> are
 * the test references only.
 */

#ifndef SE_BASE_RANDOM_HH
#define SE_BASE_RANDOM_HH

#include <cstdint>
#include <cstring>
#include <random>

namespace se {

/**
 * The standard's mt19937_64 (a UniformRandomBitGenerator). Each refill
 * regenerates the 312-word state and tempers it into out_, so a draw
 * is one load.
 */
class Mt19937_64
{
  public:
    using result_type = uint64_t;
    static constexpr int kN = 312;
    static constexpr uint64_t kDefaultSeed = 5489u;

    explicit Mt19937_64(uint64_t seed = kDefaultSeed);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~(uint64_t)0; }

    result_type
    operator()()
    {
        if (idx_ == kN)
            refill();
        return out_[idx_++];
    }

  private:
    void refill();

    uint64_t state_[kN];
    uint64_t out_[kN] = {};  ///< Tempered outputs of the current block.
    int idx_;
};

/**
 * generate_canonical<float, 24> over one 64-bit draw: the draw
 * converted to float (round to nearest), divided by 2^64, and clamped
 * below 1. Both u64->float candidates are computed and one is picked
 * by the top bit, so the conversion has no data-dependent branch.
 */
inline float
canonicalFloat(uint64_t x)
{
    const float lo = (float)(int64_t)x;
    const float hi = 2.0f * (float)(int64_t)((x >> 1) | (x & 1));
    uint32_t lo_bits = 0, hi_bits = 0;
    std::memcpy(&lo_bits, &lo, 4);
    std::memcpy(&hi_bits, &hi, 4);
    const uint32_t top = -(uint32_t)(x >> 63);
    const uint32_t bits = (hi_bits & top) | (lo_bits & ~top);
    float f = 0.0f;
    std::memcpy(&f, &bits, 4);
    const float u = f * 0x1p-64f;
    // u >= 1 only when the draw rounds to 2^64; the clamp is
    // nextafter(1.0f, 0.0f).
    const float below_one = 0x1.fffffep-1f;
    return u < below_one ? u : below_one;
}

namespace detail {

/**
 * One trial of libstdc++'s polar method over the draws a then b:
 * x = 2*u(a) - 1, y = 2*u(b) - 1, r2 = x*x + y*y. Sets y and r2 and
 * returns whether the pair is accepted (0 < r2 <= 1).
 */
bool polarTrial(uint64_t a, uint64_t b, float &y, float &r2);

/** The accepted pair's output: y*sqrt(-2 ln r2 / r2)*stddev + mean. */
float polarValue(float y, float r2, float mean, float stddev);

} // namespace detail

/**
 * Mt19937_64 with convenience draws.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x5e5e5e5eULL) : engine(seed) {}

    /** Uniform float in [lo, hi). */
    float uniform(float lo = 0.0f, float hi = 1.0f);

    /** Standard normal draw scaled by stddev. */
    float
    gaussian(float mean = 0.0f, float stddev = 1.0f)
    {
        float v = 0.0f;
        fillGaussian(&v, 1, mean, stddev);
        return v;
    }

    /**
     * out[i] = gaussian(mean, stddev) for i in [0, n), in order: the
     * same values and exactly the same engine draws as n gaussian()
     * calls.
     */
    void fillGaussian(float *out, int64_t n, float mean, float stddev);

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    integer(int64_t lo, int64_t hi)
    {
        std::uniform_int_distribution<int64_t> d(lo, hi);
        return d(engine);
    }

    /** Bernoulli draw with probability p of true. */
    bool chance(double p) { return uniform() < p; }

    Mt19937_64 &raw() { return engine; }

  private:
    Mt19937_64 engine;
};

} // namespace se

#endif // SE_BASE_RANDOM_HH
