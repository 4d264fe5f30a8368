/**
 * @file
 * Algorithm-level baselines the paper compares against in Fig. 8:
 * structured pruning (Network-Slimming-style BN-gamma channel pruning,
 * ThiNet-style filter pruning) and quantization (DoReFa-style k-bit,
 * S8/FP8-style 8-bit, power-of-2-alone). Each mutates a trained network
 * in place and reports the resulting storage so accuracy-vs-model-size
 * trade-off curves can be traced.
 */

#ifndef SE_COMPRESS_BASELINES_HH
#define SE_COMPRESS_BASELINES_HH

#include <string>

#include "nn/blocks.hh"

namespace se {
namespace compress {

/** Storage outcome of one baseline application. */
struct BaselineReport
{
    std::string technique;
    int64_t originalBits = 0;  ///< FP32 storage
    int64_t storedBits = 0;    ///< after the technique
    double sparsity = 0.0;     ///< zero / total weights

    double
    compressionRate() const
    {
        return storedBits > 0
                   ? (double)originalBits / (double)storedBits : 0.0;
    }
};

/**
 * Network-Slimming-style channel pruning: rank all BN gammas globally,
 * zero the lowest `ratio` fraction together with the producing conv
 * filters. Pruned channels are not stored (32-bit dense for the rest).
 */
BaselineReport pruneChannelsBnGamma(nn::Sequential &net, double ratio);

/**
 * ThiNet-style filter pruning: per conv layer, zero the `ratio`
 * fraction of filters with the smallest L1 norm.
 */
BaselineReport pruneFiltersL1(nn::Sequential &net, double ratio);

/**
 * DoReFa-style uniform k-bit weight quantization (fake-quantized in
 * place; storage counted at k bits per weight).
 */
BaselineReport quantizeKBit(nn::Sequential &net, int bits);

/**
 * Power-of-2-alone quantization [40]: every weight rounds to the
 * nearest +-2^p from a `bits`-wide alphabet (no decomposition, no
 * sparsity).
 */
BaselineReport quantizePow2(nn::Sequential &net, int bits);

} // namespace compress
} // namespace se

#endif // SE_COMPRESS_BASELINES_HH
