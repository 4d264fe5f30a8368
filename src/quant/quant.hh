/**
 * @file
 * Quantization primitives:
 *  - power-of-2 projection onto Omega_P = {0, +-2^p | p in P} used by the
 *    SmartExchange coefficient matrix,
 *  - symmetric linear fixed-point quantization used for activations
 *    (8-bit) and basis matrices (8-bit),
 *  - radix-4 Booth encoding and bit-level sparsity statistics used by
 *    the bit-serial datapath models (Fig. 4, Bit-pragmatic baseline).
 */

#ifndef SE_QUANT_QUANT_HH
#define SE_QUANT_QUANT_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/tensor.hh"

namespace se {
namespace quant {

/**
 * The power-of-2 alphabet Omega_P: exponents span
 * [expMax - numLevels + 1, expMax]. With 4-bit coefficients the paper
 * uses 1 sign bit + 3 exponent bits => numLevels = 7 plus the zero code.
 */
struct Pow2Alphabet
{
    int expMax = 0;      ///< Largest exponent p in P.
    int numLevels = 7;   ///< |P|: number of representable exponents.

    int expMin() const { return expMax - numLevels + 1; }

    /**
     * Project one value onto {0, +-2^p}: nearest in linear distance.
     * Exact rule: 0 and every |x| below half the smallest level
     * 2^expMin() go to +0; otherwise |x| = 1.f * 2^e rounds to
     * 2^(e+1) when the mantissa 1.f >= 1.5 (ties up) and to 2^e
     * below, and that exponent is clamped to [expMin(), expMax].
     * The sign is kept. x must be finite.
     */
    float project(float x) const;

    /** True when x is exactly representable (0 or +-2^p, p in P). */
    bool contains(float x) const;
};

/**
 * Value of one non-zero Omega_P exponent code (1..numLevels): the
 * single decode rule the model-file loaders and kernels::gemmCeB must
 * share bit for bit — powers of two are exact floats, so every
 * consumer that funnels through here reconstructs identical values.
 * Callers validate the code range and handle the zero / sign-on-zero
 * encodings under their own error policy.
 */
inline float
pow2CodeValue(int exp_min, int code, bool negative)
{
    const float mag = std::ldexp(1.0f, exp_min + code - 1);
    return negative ? -mag : mag;
}

/**
 * Choose the alphabet for a matrix: expMax from the largest magnitude,
 * numLevels from the coefficient bit budget (bits-1 sign, rest exponent
 * codes; one exponent code is reserved for zero).
 */
Pow2Alphabet choosePow2Alphabet(const Tensor &t, int bits = 4);

/**
 * choosePow2Alphabet over the listed rows of a 2-D t only (`rows`
 * ascending and in range). Every other row is treated as zero, which
 * leaves the max |element| unchanged: the choice equals the
 * whole-tensor one whenever the unlisted rows are zero.
 */
Pow2Alphabet choosePow2Alphabet(const Tensor &t,
                                const std::vector<int64_t> &rows,
                                int bits = 4);

/** Project every element of t onto the alphabet (returns a copy). */
Tensor projectPow2(const Tensor &t, const Pow2Alphabet &alpha);

/**
 * Project every element of t onto the alphabet in place (the
 * Pow2Alphabet::project rule) and return the distance it moved,
 * sum_i |t_i - project(t_i)| accumulated in double in ascending index
 * order: the (unnormalized) delta(Ce) of Algorithm 1, computed in the
 * same pass as the projection.
 */
double projectPow2InPlace(Tensor &t, const Pow2Alphabet &alpha);

/**
 * projectPow2InPlace over the listed rows of a 2-D t only (`rows`
 * ascending and in range); every other row is left untouched. A +0
 * element projects to +0 and adds +0.0 to the distance, so when the
 * unlisted rows are +0 both the tensor and the returned distance
 * equal the whole-tensor projection's bit for bit.
 */
double projectPow2InPlace(Tensor &t, const std::vector<int64_t> &rows,
                          const Pow2Alphabet &alpha);

/**
 * Symmetric linear quantizer mapping floats to signed integers of a
 * given bit width with a per-tensor scale.
 */
struct FixedPointQuantizer
{
    int bits = 8;
    float scale = 1.0f;  ///< Real value represented by one LSB.

    /** Calibrate the scale from the max |x| of a tensor. */
    static FixedPointQuantizer calibrate(const Tensor &t, int bits = 8);

    int32_t toInt(float x) const;
    float toFloat(int32_t q) const { return (float)q * scale; }

    /** Quantize-dequantize a whole tensor (fake quantization). */
    Tensor fakeQuantize(const Tensor &t) const;
};

/**
 * Radix-4 Booth encoding of a two's-complement integer.
 *
 * An n-bit value yields ceil(n/2) digits, each in {-2,-1,0,+1,+2}. The
 * number of non-zero digits is the work a Booth bit-serial multiplier
 * performs, and zero digits are the "bit-level sparsity" the paper's
 * Fig. 4 reports under Booth encoding.
 */
std::vector<int> boothDigits(int32_t value, int bits);

/** Count of non-zero Booth digits (essential digits). */
int boothNonzeroDigits(int32_t value, int bits);

/** Count of set bits in the magnitude (essential bits, no Booth). */
int essentialBits(int32_t value, int bits);

/** Aggregate bit-level sparsity statistics over a tensor. */
struct BitSparsityStats
{
    double plainBitSparsity = 0.0;  ///< zero bits / total bits (no Booth)
    double boothBitSparsity = 0.0;  ///< zero digits / total digits
    double valueSparsity = 0.0;     ///< zero values / total values
    double avgEssentialBits = 0.0;  ///< mean nonzero bits per value
    double avgBoothDigits = 0.0;    ///< mean nonzero Booth digits
};

/**
 * Quantize t to `bits` and measure bit-level sparsity with and without
 * 4-bit (radix-4) Booth encoding, reproducing the Fig. 4 metric.
 */
BitSparsityStats measureBitSparsity(const Tensor &t, int bits = 8);

} // namespace quant
} // namespace se

#endif // SE_QUANT_QUANT_HH
