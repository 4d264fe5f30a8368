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
 * the threshold test is one integer compare. The level, its sign and
 * the collapse to +0 are combined as bit masks, not branches: which
 * elements collapse is data-dependent and would mispredict.
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
        const float v =
            pow2f(std::clamp(nearestPow2Exp(x), expMin, expMax));
        uint32_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        bits |= (uint32_t)!(x > 0) << 31;               // x > 0 ? v : -v
        bits &= 0u - (uint32_t)(mag != 0 && mag >= halfBits);  // or +0
        float out;
        std::memcpy(&out, &bits, sizeof out);
        return out;
    }
};

/**
 * Call f(x, count) on every run of t a pow2 op visits: the whole
 * tensor when rows is null, else each listed row of a 2-D t, in
 * ascending order (checked).
 */
template <typename TensorT, typename F>
void
forEachRun(TensorT &t, const std::vector<int64_t> *rows, F &&f)
{
    auto *data = t.data();
    if (!rows) {
        f(data, t.size());
        return;
    }
    SE_ASSERT(t.ndim() == 2, "row-restricted pow2 ops need a 2-D tensor");
    const int64_t r = t.dim(1);
    int64_t next = 0;
    for (int64_t i : *rows) {
        SE_ASSERT(i >= next && i < t.dim(0),
                  "rows must be ascending and in range");
        f(data + i * r, r);
        next = i + 1;
    }
}

Pow2Alphabet
chooseAlphabet(const Tensor &t, const std::vector<int64_t> *rows, int bits)
{
    SE_ASSERT(bits >= 2, "need at least sign + 1 exponent bit");
    float max_abs = 0.0f;
    forEachRun(t, rows, [&](const float *x, int64_t count) {
        float mx = max_abs;  // a register, not the captured float
        for (int64_t i = 0; i < count; ++i)
            mx = std::max(mx, std::abs(x[i]));
        max_abs = mx;
    });
    Pow2Alphabet a;
    // bits-1 exponent codes, one reserved for zero.
    a.numLevels = (1 << (bits - 1)) - 1;
    a.expMax = max_abs > 0 ? nearestPow2Exp(max_abs) : 0;
    return a;
}

double
projectInPlace(Tensor &t, const std::vector<int64_t> *rows,
               const Pow2Alphabet &alpha)
{
    const Pow2Projector project(alpha);
    double d = 0.0;
    forEachRun(t, rows, [&](float *x, int64_t count) {
        double acc = d;  // a register, not the captured double
        for (int64_t i = 0; i < count; ++i) {
            const float q = project(x[i]);
            acc += std::abs((double)x[i] - q);
            x[i] = q;
        }
        d = acc;
    });
    return d;
}

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
    return chooseAlphabet(t, nullptr, bits);
}

Pow2Alphabet
choosePow2Alphabet(const Tensor &t, const std::vector<int64_t> &rows,
                   int bits)
{
    return chooseAlphabet(t, &rows, bits);
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
    return projectInPlace(t, nullptr, alpha);
}

double
projectPow2InPlace(Tensor &t, const std::vector<int64_t> &rows,
                   const Pow2Alphabet &alpha)
{
    return projectInPlace(t, &rows, alpha);
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
