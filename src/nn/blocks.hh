/**
 * @file
 * Composite blocks: Sequential containers, residual blocks (ResNet),
 * squeeze-and-excite gates and inverted residual blocks (MobileNetV2 /
 * EfficientNet). Composites chain their children's forward/backward by
 * hand — no autograd tape is needed for these simple topologies.
 */

#ifndef SE_NN_BLOCKS_HH
#define SE_NN_BLOCKS_HH

#include "nn/layers.hh"

namespace se {
namespace nn {

/** Ordered container of layers; also the top-level "model" type. */
class Sequential : public Layer
{
  public:
    Sequential() = default;
    /** Deep copy: every child is cloned. */
    Sequential(const Sequential &other);

    /** Append a layer, returning a raw observer pointer. */
    template <typename T, typename... Args>
    T *
    add(Args&&... args)
    {
        auto layer = std::make_unique<T>(std::forward<Args>(args)...);
        T *raw = layer.get();
        children.push_back(std::move(layer));
        return raw;
    }

    void addLayer(LayerPtr l) { children.push_back(std::move(l)); }

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &gy) override;
    std::vector<Param> params() override;
    std::string name() const override { return "sequential"; }
    LayerPtr clone() const override;

    size_t size() const { return children.size(); }
    Layer *layer(size_t i) { return children[i].get(); }

    /** Depth-first visit of every leaf layer (for SE application). */
    void visit(const std::function<void(Layer &)> &fn);

  private:
    std::vector<LayerPtr> children;
};

/**
 * Residual block: y = relu(main(x) + shortcut(x)); shortcut may be
 * empty (identity) or a projection (1x1 conv + BN).
 */
class Residual : public Layer
{
  public:
    Residual(std::unique_ptr<Sequential> main_path,
             std::unique_ptr<Sequential> shortcut_path)
        : mainPath(std::move(main_path)),
          shortcutPath(std::move(shortcut_path))
    {}
    /** Deep copy of both paths. */
    Residual(const Residual &other);

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &gy) override;
    std::vector<Param> params() override;
    std::string name() const override { return "residual"; }
    LayerPtr clone() const override;

    Sequential &main() { return *mainPath; }
    Sequential *shortcut() { return shortcutPath.get(); }

    /** Visit leaves of both paths. */
    void visit(const std::function<void(Layer &)> &fn);

  private:
    std::unique_ptr<Sequential> mainPath;
    std::unique_ptr<Sequential> shortcutPath;  ///< may be null
    ReLU outRelu;
    Tensor cachedSumMask;
};

/**
 * Squeeze-and-excite gate: per-channel scale
 * s = sigmoid(W2 relu(W1 gap(x))), y = x * s.
 */
class SqueezeExcite : public Layer
{
  public:
    SqueezeExcite(int64_t channels, int64_t reduced, Rng &rng);
    /** Deep copy of both FC layers. */
    SqueezeExcite(const SqueezeExcite &other);

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &gy) override;
    std::vector<Param> params() override;
    std::string name() const override { return "squeeze_excite"; }
    LayerPtr clone() const override;

    Linear &reduceFc() { return *fc1; }
    Linear &expandFc() { return *fc2; }

    /** Visit the two FC leaves. */
    void visit(const std::function<void(Layer &)> &fn);

  private:
    int64_t ch;
    std::unique_ptr<Linear> fc1, fc2;
    ReLU relu;
    Sigmoid sigmoid;
    GlobalAvgPool gap;
    Flatten flatten;
    Tensor cachedX, cachedScale;
};

/**
 * MobileNetV2 inverted residual: 1x1 expand -> 3x3 depth-wise ->
 * optional squeeze-excite -> 1x1 project, with identity skip when the
 * stride is 1 and channel counts match.
 */
class InvertedResidual : public Layer
{
  public:
    InvertedResidual(int64_t in_ch, int64_t out_ch, int64_t stride,
                     int64_t expand_ratio, bool use_se, Rng &rng);
    /** Deep copy of the body. */
    InvertedResidual(const InvertedResidual &other);

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &gy) override;
    std::vector<Param> params() override;
    std::string name() const override { return "inverted_residual"; }
    LayerPtr clone() const override;

    Sequential &body() { return *path; }
    bool hasSkip() const { return useSkip; }

    void visit(const std::function<void(Layer &)> &fn);

  private:
    std::unique_ptr<Sequential> path;
    bool useSkip;
};

} // namespace nn
} // namespace se

#endif // SE_NN_BLOCKS_HH
