/**
 * @file
 * Bit-manipulation helpers used by the quantizers and the bit-serial
 * datapath models.
 */

#ifndef SE_BASE_BITUTILS_HH
#define SE_BASE_BITUTILS_HH

#include <cstdint>
#include <cstring>

namespace se {

/** Number of set bits in an unsigned value. */
inline int
popcount(uint64_t v)
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_popcountll(v);
#else
    int n = 0;
    while (v) {
        v &= v - 1;
        ++n;
    }
    return n;
#endif
}

/** True when v is an exact power of two (v > 0). */
inline bool
isPow2(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Ceil of log2 for positive values; ceilLog2(1) == 0. */
inline int
ceilLog2(uint64_t v)
{
    int bits = 0;
    uint64_t p = 1;
    while (p < v) {
        p <<= 1;
        ++bits;
    }
    return bits;
}

/** Integer ceiling division. */
inline int64_t
ceilDiv(int64_t a, int64_t b)
{
    return (a + b - 1) / b;
}

/**
 * Exponent p of the power of two nearest to |x| in linear distance,
 * i.e. the p minimizing | |x| - 2^p |. The caller handles sign and
 * zero; x must be finite and non-zero (zero maps to the smallest
 * denormal exponent, and non-finite input is out of contract). Float
 * arguments promote exactly, so they get the same answer.
 *
 * Exact rule, no log2/lround: write |x| = 1.f * 2^e, normalizing
 * denormals first. The only candidates are 2^e and 2^(e+1), and
 * 2^(e+1) is the nearer one exactly when the mantissa 1.f >= 1.5
 * (ties round up), i.e. when the top fraction bit is set. Hence
 * p = e + (top fraction bit).
 */
inline int
nearestPow2Exp(double x)
{
    uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    const int biased = (int)((u >> 52) & 0x7ffu);
    const uint64_t frac = u & ((1ull << 52) - 1);
    if (biased != 0)
        return biased - 1023 + (int)(frac >> 51);
    // Denormal: |x| = frac * 2^-1074. Its leading set bit k gives
    // e = k - 1074, and the bit below it is the "mantissa >= 1.5" bit.
    int k = 51;
    while (k > 0 && !(frac >> k))
        --k;
    return k - 1074 + (k > 0 ? (int)((frac >> (k - 1)) & 1u) : 0);
}

} // namespace se

#endif // SE_BASE_BITUTILS_HH
