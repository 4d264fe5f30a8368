#include "tensor/tensor.hh"

#include "base/random.hh"

namespace se {

Tensor
eye(int64_t n)
{
    Tensor t({n, n});
    for (int64_t i = 0; i < n; ++i)
        t.at(i, i) = 1.0f;
    return t;
}

Tensor
randn(const Shape &shape, Rng &rng, float mean, float stddev)
{
    Tensor t(shape);
    rng.fillGaussian(t.data(), t.size(), mean, stddev);
    return t;
}

} // namespace se
