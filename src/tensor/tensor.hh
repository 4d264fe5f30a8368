/**
 * @file
 * A small dense row-major float tensor.
 *
 * This is the numeric substrate for both the SmartExchange algorithm
 * (which operates on 2-D weight matrices) and the NN framework (which
 * uses 4-D activation/weight tensors in NCHW / MCRS layout).
 */

#ifndef SE_TENSOR_TENSOR_HH
#define SE_TENSOR_TENSOR_HH

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <numeric>
#include <vector>

#include "base/logging.hh"

namespace se {

/** Shape of a tensor: up to 4 dimensions in practice. */
using Shape = std::vector<int64_t>;

/** Number of elements implied by a shape. */
inline int64_t
numel(const Shape &s)
{
    int64_t n = 1;
    for (auto d : s)
        n *= d;
    return n;
}

/**
 * Dense row-major float tensor with value semantics.
 *
 * Indexing helpers are provided for 1-4 dims; at() checks bounds via
 * SE_ASSERT in all builds (the library is simulation-scale, not HPC).
 */
class Tensor
{
  public:
    Tensor() = default;

    explicit Tensor(Shape shape, float fill = 0.0f)
        : shape_(std::move(shape)), data_(numel(shape_), fill)
    {
        computeStrides();
    }

    Tensor(Shape shape, std::vector<float> values)
        : shape_(std::move(shape)), data_(std::move(values))
    {
        SE_ASSERT((int64_t)data_.size() == numel(shape_),
                  "value count does not match shape");
        computeStrides();
    }

    const Shape &shape() const { return shape_; }
    int64_t dim(int i) const { return shape_[(size_t)i]; }
    int ndim() const { return (int)shape_.size(); }
    int64_t size() const { return (int64_t)data_.size(); }
    bool empty() const { return data_.empty(); }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }
    std::vector<float> &vec() { return data_; }
    const std::vector<float> &vec() const { return data_; }

    float &operator[](int64_t i) { return data_[(size_t)i]; }
    float operator[](int64_t i) const { return data_[(size_t)i]; }

    /** Bounds-checked linear access. */
    float &
    at(int64_t i)
    {
        SE_ASSERT(i >= 0 && i < size(), "index ", i, " out of range ",
                  size());
        return data_[(size_t)i];
    }

    /** 2-D access (row, col). */
    float &
    at(int64_t i, int64_t j)
    {
        return data_[(size_t)(i * strides_[0] + j)];
    }
    float
    at(int64_t i, int64_t j) const
    {
        return data_[(size_t)(i * strides_[0] + j)];
    }

    /** 3-D access. */
    float &
    at(int64_t i, int64_t j, int64_t k)
    {
        return data_[(size_t)(i * strides_[0] + j * strides_[1] + k)];
    }
    float
    at(int64_t i, int64_t j, int64_t k) const
    {
        return data_[(size_t)(i * strides_[0] + j * strides_[1] + k)];
    }

    /** 4-D access (n, c, h, w). */
    float &
    at(int64_t n, int64_t c, int64_t h, int64_t w)
    {
        return data_[(size_t)(n * strides_[0] + c * strides_[1] +
                              h * strides_[2] + w)];
    }
    float
    at(int64_t n, int64_t c, int64_t h, int64_t w) const
    {
        return data_[(size_t)(n * strides_[0] + c * strides_[1] +
                              h * strides_[2] + w)];
    }

    /** Reinterpret the data with a new shape of equal element count. */
    Tensor
    reshaped(Shape new_shape) const
    {
        SE_ASSERT(numel(new_shape) == size(), "reshape element mismatch");
        Tensor t;
        t.shape_ = std::move(new_shape);
        t.data_ = data_;
        t.computeStrides();
        return t;
    }

    /** Elementwise in-place map. */
    Tensor &
    apply(const std::function<float(float)> &f)
    {
        for (auto &v : data_)
            v = f(v);
        return *this;
    }

    /** Fill with a constant. */
    void
    fill(float v)
    {
        std::fill(data_.begin(), data_.end(), v);
    }

    /** Sum of all elements. */
    double
    sum() const
    {
        return std::accumulate(data_.begin(), data_.end(), 0.0);
    }

  private:
    void
    computeStrides()
    {
        strides_.assign(shape_.size(), 1);
        for (int i = (int)shape_.size() - 2; i >= 0; --i)
            strides_[(size_t)i] =
                strides_[(size_t)i + 1] * shape_[(size_t)i + 1];
    }

    Shape shape_;
    std::vector<int64_t> strides_;
    std::vector<float> data_;
};

/** Identity matrix of size n (2-D tensor). */
Tensor eye(int64_t n);

/** Tensor with i.i.d. N(mean, stddev) entries. */
Tensor randn(const Shape &shape, class Rng &rng, float mean = 0.0f,
             float stddev = 1.0f);

} // namespace se

#endif // SE_TENSOR_TENSOR_HH
