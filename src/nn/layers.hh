/**
 * @file
 * Concrete layers: Conv2d (grouped => depth-wise), Linear, BatchNorm2d,
 * ReLU (with optional clamp for ReLU6), Sigmoid, MaxPool2d,
 * GlobalAvgPool, Flatten, UpsampleNearest.
 */

#ifndef SE_NN_LAYERS_HH
#define SE_NN_LAYERS_HH

#include "nn/layer.hh"

namespace se {
class Rng;
namespace nn {

/**
 * 2-D convolution in NCHW with square kernels, zero padding and groups.
 * groups == inChannels == outChannels gives a depth-wise convolution.
 * Kernel, stride, dilation and groups must be >= 1 and pad >= 0.
 *
 * Forward runs the offset-addressed double-chain GEMM with the batch
 * folded into its columns (kernels/conv.hh; bit-identical to the
 * legacy loop in tests/reference), staging in the calling thread's
 * scratch arena instead of per-call or per-layer buffers, so a layer
 * holds no scratch of its own. Backward is the legacy loop itself:
 * the golden-pinned retrain benches depend on its float accumulation
 * order, which no GEMM lowering reproduces for gx.
 */
class Conv2d : public Layer
{
  public:
    Conv2d(int64_t in_ch, int64_t out_ch, int64_t kernel,
           int64_t stride, int64_t pad, int64_t groups, Rng &rng,
           bool bias = true, int64_t dilation = 1);

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &gy) override;
    std::vector<Param> params() override;
    std::string name() const override { return "conv"; }
    LayerPtr
    clone() const override
    {
        return std::make_unique<Conv2d>(*this);
    }

    /** Weight tensor in (M, C/groups, R, S) layout. */
    Tensor &weightTensor() { return weight; }
    const Tensor &weightTensor() const { return weight; }
    Tensor &biasTensor() { return bias_; }

    int64_t inChannels() const { return inCh; }
    int64_t outChannels() const { return outCh; }
    int64_t kernelSize() const { return kern; }
    int64_t strideLen() const { return strd; }
    int64_t padLen() const { return pad_; }
    int64_t groupCount() const { return grps; }
    int64_t dilationLen() const { return dil; }

  private:
    int64_t inCh, outCh, kern, strd, pad_, grps, dil;
    bool hasBias;
    Tensor weight, bias_, gradW, gradB;
    Tensor cachedX;
};

/**
 * Fully-connected layer y = x W^T + b, x is (N, C). Both directions
 * run on the blocked GEMM, bit-identical to the legacy loops in
 * tests/reference, with their transposes staged in the calling
 * thread's scratch arena.
 */
class Linear : public Layer
{
  public:
    Linear(int64_t in_features, int64_t out_features, Rng &rng,
           bool bias = true);

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &gy) override;
    std::vector<Param> params() override;
    std::string name() const override { return "linear"; }
    LayerPtr
    clone() const override
    {
        return std::make_unique<Linear>(*this);
    }

    /** Weight tensor in (out, in) layout. */
    Tensor &weightTensor() { return weight; }
    const Tensor &weightTensor() const { return weight; }
    /** Bias tensor; empty when constructed with bias = false. */
    Tensor &biasTensor() { return bias_; }

    int64_t inFeatures() const { return inF; }
    int64_t outFeatures() const { return outF; }

  private:
    int64_t inF, outF;
    bool hasBias;
    Tensor weight, bias_, gradW, gradB;
    Tensor cachedX;
};

/**
 * Batch normalization over NCHW channels. gamma is exposed because the
 * SmartExchange channel pruning step thresholds BN scaling factors.
 * In eval mode nn::Sequential runs a BatchNorm2d and the ReLU after it
 * as one evalReluInPlace pass; a BatchNorm2d with no ReLU after it
 * runs the same pass with the ReLU off.
 */
class BatchNorm2d : public Layer
{
  public:
    explicit BatchNorm2d(int64_t channels, float eps = 1e-5f,
                         float momentum = 0.1f);

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &gy) override;
    std::vector<Param> params() override;
    std::string name() const override { return "bn"; }

    /**
     * x = ReLU(forward(x, false)) in place, with ReLU's clamp at
     * relu_max when that is > 0: the eval expression in double
     * (rounded once to float), then the ReLU as selects, so every
     * byte matches the two layers (NaN and -0 go to +0).
     */
    void evalReluInPlace(Tensor &x, float relu_max) const;
    LayerPtr
    clone() const override
    {
        return std::make_unique<BatchNorm2d>(*this);
    }

    Tensor &gammaTensor() { return gamma; }
    const Tensor &gammaTensor() const { return gamma; }
    Tensor &betaTensor() { return beta; }
    /**
     * Eval-mode normalization state. Exposed so model-file v3 can ship
     * the dense residual (a served model must reproduce the
     * compression-time running stats, which no seeded re-build can).
     */
    Tensor &runningMeanTensor() { return runningMean; }
    Tensor &runningVarTensor() { return runningVar; }

  private:
    /**
     * The eval expression on the running stats, in double and rounded
     * once to float, from x into y (which may be x); then, when Relu,
     * the ReLU and its clamp at relu_max (> 0) as selects.
     */
    template <bool Relu>
    void evalPass(const Tensor &x, Tensor &y, float relu_max) const;

    int64_t ch;
    float eps, momentum;
    Tensor gamma, beta, gradGamma, gradBeta;
    Tensor runningMean, runningVar;
    // Caches for backward.
    Tensor cachedXhat;
    std::vector<double> cachedInvStd;
    int64_t cachedCount = 0;
};

/** ReLU, optionally clamped at maxVal (ReLU6 for compact models). */
class ReLU : public Layer
{
  public:
    explicit ReLU(float max_val = 0.0f) : maxVal(max_val) {}

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &gy) override;
    std::string name() const override { return "relu"; }
    LayerPtr
    clone() const override
    {
        return std::make_unique<ReLU>(*this);
    }

    /** The clamp, or 0 for none. */
    float clampMax() const { return maxVal; }

  private:
    float maxVal;  ///< 0 => unbounded.
    Tensor mask;
};

/** Logistic sigmoid (used by squeeze-and-excite gates). */
class Sigmoid : public Layer
{
  public:
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &gy) override;
    std::string name() const override { return "sigmoid"; }
    LayerPtr
    clone() const override
    {
        return std::make_unique<Sigmoid>(*this);
    }

  private:
    Tensor cachedY;
};

/**
 * Max pooling with square window. Each window's max is seeded from its
 * own first tap, so all -Inf windows, or windows below any sentinel,
 * still return (and route the gradient to) one of their own inputs.
 * Kernel and stride must be >= 1.
 */
class MaxPool2d : public Layer
{
  public:
    MaxPool2d(int64_t kernel, int64_t stride);

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &gy) override;
    std::string name() const override { return "maxpool"; }
    LayerPtr
    clone() const override
    {
        return std::make_unique<MaxPool2d>(*this);
    }

    int64_t kernelSize() const { return kern; }
    int64_t strideLen() const { return strd; }

  private:
    int64_t kern, strd;
    Shape inShape;
    std::vector<int64_t> argmax;
};

/** Global average pooling to (N, C, 1, 1). */
class GlobalAvgPool : public Layer
{
  public:
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &gy) override;
    std::string name() const override { return "gap"; }
    LayerPtr
    clone() const override
    {
        return std::make_unique<GlobalAvgPool>(*this);
    }

  private:
    Shape inShape;
};

/** Flatten (N, C, H, W) -> (N, C*H*W). */
class Flatten : public Layer
{
  public:
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &gy) override;
    std::string name() const override { return "flatten"; }
    LayerPtr
    clone() const override
    {
        return std::make_unique<Flatten>(*this);
    }

  private:
    Shape inShape;
};

/** Nearest-neighbour upsampling by an integer factor (DeepLab head). */
class UpsampleNearest : public Layer
{
  public:
    explicit UpsampleNearest(int64_t factor) : fac(factor) {}

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &gy) override;
    std::string name() const override { return "upsample"; }
    LayerPtr
    clone() const override
    {
        return std::make_unique<UpsampleNearest>(*this);
    }

    int64_t factor() const { return fac; }

  private:
    int64_t fac;
    Shape inShape;
};

} // namespace nn
} // namespace se

#endif // SE_NN_LAYERS_HH
