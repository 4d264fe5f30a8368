/**
 * @file
 * Layer interface for the from-scratch NN framework.
 *
 * The framework exists because SmartExchange needs (a) real trained
 * weights to decompose, (b) re-training epochs interleaved with the
 * decomposition (Section III-C of the paper), and (c) real activation
 * tensors to measure bit-level sparsity (Fig. 4). It is a teaching-size
 * CPU implementation: eager, single-threaded, NCHW.
 */

#ifndef SE_NN_LAYER_HH
#define SE_NN_LAYER_HH

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hh"

namespace se {
namespace nn {

/** A learnable parameter: value plus accumulated gradient. */
struct Param
{
    Tensor *value = nullptr;
    Tensor *grad = nullptr;
    std::string name;
};

/**
 * Base class of all layers. forward() caches whatever backward() needs;
 * backward() consumes the gradient w.r.t. the output and returns the
 * gradient w.r.t. the input, accumulating parameter gradients.
 */
class Layer
{
  public:
    virtual ~Layer() = default;

    virtual Tensor forward(const Tensor &x, bool train) = 0;
    virtual Tensor backward(const Tensor &gy) = 0;

    /** Learnable parameters (empty for stateless layers). */
    virtual std::vector<Param> params() { return {}; }

    /** Human-readable layer kind, e.g. "conv3x3". */
    virtual std::string name() const = 0;

    /**
     * Deep copy: configuration, parameters and BN running stats, with
     * composites cloning their children. The copy shares no storage
     * with this layer.
     */
    virtual std::unique_ptr<Layer> clone() const = 0;

    /** Zero all parameter gradients. */
    void
    zeroGrad()
    {
        for (auto &p : params())
            p.grad->fill(0.0f);
    }
};

using LayerPtr = std::unique_ptr<Layer>;

} // namespace nn
} // namespace se

#endif // SE_NN_LAYER_HH
