#include "quant/quant.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "base/bitutils.hh"

namespace se {
namespace quant {

namespace {

/** 2^p as a float, identical to std::ldexp(1.0f, p) for every p. */
inline float
pow2f(int p)
{
    if (p < -126 || p > 127)  // denormal, underflow to 0, or inf
        return std::ldexp(1.0f, p);
    const uint32_t u = (uint32_t)(p + 127) << 23;
    float f;
    std::memcpy(&f, &u, sizeof f);
    return f;
}

/**
 * The projection of Pow2Alphabet::project with its per-alphabet
 * constants hoisted: the exponent range and the bit pattern of the
 * "collapse to zero" threshold, half the smallest level. For
 * non-negative floats the IEEE bit patterns order like the values, so
 * the threshold test is one integer compare.
 */
struct Pow2Projector
{
    int expMin, expMax;
    uint32_t halfBits;

    explicit Pow2Projector(const Pow2Alphabet &a)
        : expMin(a.expMin()), expMax(a.expMax)
    {
        const float half = std::ldexp(1.0f, expMin) * 0.5f;
        std::memcpy(&halfBits, &half, sizeof halfBits);
    }

    float
    operator()(float x) const
    {
        uint32_t u;
        std::memcpy(&u, &x, sizeof u);
        const uint32_t mag = u & 0x7fffffffu;
        if (mag == 0 || mag < halfBits)
            return 0.0f;
        const float v =
            pow2f(std::clamp(nearestPow2Exp(x), expMin, expMax));
        return x > 0 ? v : -v;
    }
};

} // namespace

float
Pow2Alphabet::project(float x) const
{
    return Pow2Projector(*this)(x);
}

bool
Pow2Alphabet::contains(float x) const
{
    if (x == 0.0f)
        return true;
    float ax = std::abs(x);
    int p;
    float frac = std::frexp(ax, &p);   // ax = frac * 2^p, frac in [0.5,1)
    if (frac != 0.5f)
        return false;
    int exponent = p - 1;
    return exponent >= expMin() && exponent <= expMax;
}

Pow2Alphabet
choosePow2Alphabet(const Tensor &t, int bits)
{
    SE_ASSERT(bits >= 2, "need at least sign + 1 exponent bit");
    float max_abs = 0.0f;
    for (int64_t i = 0; i < t.size(); ++i)
        max_abs = std::max(max_abs, std::abs(t[i]));

    Pow2Alphabet a;
    // bits-1 exponent codes, one reserved for zero.
    a.numLevels = (1 << (bits - 1)) - 1;
    a.expMax = max_abs > 0 ? nearestPow2Exp(max_abs) : 0;
    return a;
}

Tensor
projectPow2(const Tensor &t, const Pow2Alphabet &alpha)
{
    Tensor out = t;
    projectPow2InPlace(out, alpha);
    return out;
}

double
projectPow2InPlace(Tensor &t, const Pow2Alphabet &alpha)
{
    const Pow2Projector project(alpha);
    float *x = t.data();
    double d = 0.0;
    for (int64_t i = 0; i < t.size(); ++i) {
        const float q = project(x[i]);
        d += std::abs((double)x[i] - q);
        x[i] = q;
    }
    return d;
}

FixedPointQuantizer
FixedPointQuantizer::calibrate(const Tensor &t, int bits)
{
    float max_abs = 0.0f;
    for (int64_t i = 0; i < t.size(); ++i)
        max_abs = std::max(max_abs, std::abs(t[i]));
    FixedPointQuantizer q;
    q.bits = bits;
    const int32_t qmax = (1 << (bits - 1)) - 1;
    q.scale = max_abs > 0 ? max_abs / (float)qmax : 1.0f;
    return q;
}

int32_t
FixedPointQuantizer::toInt(float x) const
{
    const int32_t qmax = (1 << (bits - 1)) - 1;
    const int32_t qmin = -qmax;
    int32_t q = (int32_t)std::lround(x / scale);
    return std::clamp(q, qmin, qmax);
}

Tensor
FixedPointQuantizer::fakeQuantize(const Tensor &t) const
{
    Tensor out = t;
    for (int64_t i = 0; i < out.size(); ++i)
        out[i] = toFloat(toInt(out[i]));
    return out;
}

std::vector<int>
boothDigits(int32_t value, int bits)
{
    // Radix-4 Booth: examine overlapping triplets (b_{2i+1}, b_{2i},
    // b_{2i-1}) of the two's-complement representation with b_{-1}=0.
    const int ndigits = (bits + 1) / 2;
    std::vector<int> digits((size_t)ndigits, 0);
    uint32_t u = (uint32_t)value & ((bits >= 32) ? ~0u
                                                 : ((1u << bits) - 1));
    auto bit = [&](int i) -> int {
        if (i < 0)
            return 0;
        if (i >= bits)  // sign extension
            return (int)((u >> (bits - 1)) & 1);
        return (int)((u >> i) & 1);
    };
    static const int lut[8] = {0, 1, 1, 2, -2, -1, -1, 0};
    for (int d = 0; d < ndigits; ++d) {
        int code = (bit(2 * d + 1) << 2) | (bit(2 * d) << 1) |
                   bit(2 * d - 1);
        digits[(size_t)d] = lut[code];
    }
    return digits;
}

int
boothNonzeroDigits(int32_t value, int bits)
{
    int n = 0;
    for (int d : boothDigits(value, bits))
        n += d != 0;
    return n;
}

int
essentialBits(int32_t value, int bits)
{
    uint32_t mag = (uint32_t)std::abs((int64_t)value);
    mag &= (bits >= 32) ? ~0u : ((1u << bits) - 1);
    return popcount(mag);
}

BitSparsityStats
measureBitSparsity(const Tensor &t, int bits)
{
    auto q = FixedPointQuantizer::calibrate(t, bits);
    const int ndigits = (bits + 1) / 2;
    int64_t total = t.size();
    int64_t zero_values = 0;
    int64_t plain_nonzero_bits = 0, booth_nonzero_digits = 0;

    for (int64_t i = 0; i < total; ++i) {
        int32_t v = q.toInt(t[i]);
        if (v == 0)
            ++zero_values;
        plain_nonzero_bits += essentialBits(v, bits);
        booth_nonzero_digits += boothNonzeroDigits(v, bits);
    }

    BitSparsityStats s;
    if (total == 0)
        return s;
    s.valueSparsity = (double)zero_values / (double)total;
    s.plainBitSparsity =
        1.0 - (double)plain_nonzero_bits / (double)(total * bits);
    s.boothBitSparsity =
        1.0 - (double)booth_nonzero_digits / (double)(total * ndigits);
    s.avgEssentialBits = (double)plain_nonzero_bits / (double)total;
    s.avgBoothDigits = (double)booth_nonzero_digits / (double)total;
    return s;
}

} // namespace quant
} // namespace se
