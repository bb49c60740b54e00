#include "nn/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/expect.hpp"

namespace iob::nn {

std::int64_t shape_elems(const Shape& shape) {
  std::int64_t n = 1;
  for (const int d : shape) {
    IOB_EXPECTS(d > 0, "shape dims must be positive");
    n *= d;
  }
  return n;
}

std::string shape_str(const Shape& shape) {
  std::ostringstream os;
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << "x";
    os << shape[i];
  }
  return os.str();
}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)), data_(static_cast<std::size_t>(shape_elems(shape_)), fill) {
  IOB_EXPECTS(!shape_.empty() && shape_.size() <= 4, "tensor rank must be 1-4");
}

float& Tensor::at(int i, int j) {
  IOB_EXPECTS(rank() == 2 && i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1],
              "rank-2 index out of range");
  return data_[static_cast<std::size_t>(i) * shape_[1] + j];
}

float& Tensor::at(int i, int j, int k) {
  IOB_EXPECTS(rank() == 3 && i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1] && k >= 0 &&
                  k < shape_[2],
              "rank-3 index out of range");
  return data_[(static_cast<std::size_t>(i) * shape_[1] + j) * shape_[2] + k];
}

float Tensor::at(int i, int j, int k) const { return const_cast<Tensor*>(this)->at(i, j, k); }

Tensor::Tensor(Shape shape, const float* src)
    : shape_(std::move(shape)),
      data_(src, src + static_cast<std::size_t>(shape_elems(shape_))) {
  IOB_EXPECTS(!shape_.empty() && shape_.size() <= 4, "tensor rank must be 1-4");
}

Tensor Tensor::from_data(Shape shape, const float* data) {
  IOB_EXPECTS(data != nullptr, "from_data needs a source pointer");
  return Tensor(std::move(shape), data);
}

Tensor Tensor::batch_item(int i) const {
  const ConstSpan s = batch_span(i);
  return from_data(Shape(shape_.begin() + 1, shape_.end()), s.data);
}

ConstSpan Tensor::batch_span(int i) const {
  IOB_EXPECTS(rank() >= 2, "batch_span needs a leading batch dim");
  IOB_EXPECTS(i >= 0 && i < shape_[0], "batch index out of range");
  const std::int64_t stride = size() / shape_[0];
  return ConstSpan{data() + static_cast<std::ptrdiff_t>(i) * stride, stride};
}

Tensor patterned_tensor(Shape shape, int salt) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.size(); ++i) {
    const auto h = static_cast<std::uint32_t>(i * 2654435761u + salt * 97u);
    t[i] = static_cast<float>(h % 1000u) / 500.0f - 1.0f;
  }
  return t;
}

Tensor stack_batch(const std::vector<Tensor>& samples) {
  IOB_EXPECTS(!samples.empty(), "stack_batch needs at least one sample");
  const Shape& sample_shape = samples.front().shape();
  IOB_EXPECTS(sample_shape.size() <= 3, "stacked sample rank must be <= 3");
  Shape batched_shape{static_cast<int>(samples.size())};
  batched_shape.insert(batched_shape.end(), sample_shape.begin(), sample_shape.end());
  Tensor out(std::move(batched_shape));
  const std::int64_t stride = samples.front().size();
  for (std::size_t s = 0; s < samples.size(); ++s) {
    IOB_EXPECTS(samples[s].shape() == sample_shape, "stack_batch samples must share a shape");
    std::copy(samples[s].data(), samples[s].data() + stride,
              out.data() + static_cast<std::ptrdiff_t>(s) * stride);
  }
  return out;
}

double max_abs_diff(ConstSpan a, ConstSpan b) {
  IOB_EXPECTS(a.size == b.size, "span size mismatch");
  double m = 0.0;
  for (std::int64_t i = 0; i < a.size; ++i) {
    m = std::max(m, static_cast<double>(std::fabs(a[i] - b[i])));
  }
  return m;
}

double Tensor::max_abs_diff(const Tensor& other) const {
  IOB_EXPECTS(shape_ == other.shape_, "shape mismatch");
  return nn::max_abs_diff(ConstSpan{data(), size()}, ConstSpan{other.data(), other.size()});
}

}  // namespace iob::nn
