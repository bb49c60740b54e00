#pragma once
/// \file tensor.hpp
/// Minimal dense tensor for the from-scratch NN inference engine.
///
/// Row-major float storage; rank 1-4. Image tensors are HWC (height, width,
/// channels); 1-D signal tensors are LC (length, channels). The engine
/// exists to execute the paper's wearable-AI workloads (keyword spotting,
/// ECG classification, visual wake words) with *true* per-layer MAC counts
/// and activation sizes — the quantities the partitioning optimizer and the
/// offload-energy story depend on.

#include <cstdint>
#include <string>
#include <vector>

namespace iob::nn {

using Shape = std::vector<int>;

/// Total element count of a shape (product of dims).
std::int64_t shape_elems(const Shape& shape);

/// Human-readable "HxWxC" rendering.
std::string shape_str(const Shape& shape);

/// Non-owning read-only view of `size` contiguous floats — the C++17
/// stand-in for std::span<const float> the allocation-free inference entry
/// points (`Model::run_into`, `Tensor::batch_span`) traffic in.
struct ConstSpan {
  const float* data = nullptr;
  std::int64_t size = 0;

  [[nodiscard]] const float* begin() const { return data; }
  [[nodiscard]] const float* end() const { return data + size; }
  float operator[](std::int64_t i) const { return data[static_cast<std::size_t>(i)]; }
};

/// Elementwise maximum |a - b| of two equal-sized spans.
[[nodiscard]] double max_abs_diff(ConstSpan a, ConstSpan b);

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape, float fill = 0.0f);

  /// Build a tensor by copying `shape_elems(shape)` floats from `data`.
  [[nodiscard]] static Tensor from_data(Shape shape, const float* data);

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] int rank() const { return static_cast<int>(shape_.size()); }
  [[nodiscard]] std::int64_t size() const { return static_cast<std::int64_t>(data_.size()); }
  [[nodiscard]] std::int64_t bytes() const { return size() * 4; }  ///< float32 footprint

  [[nodiscard]] float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }

  float& operator[](std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  float operator[](std::int64_t i) const { return data_[static_cast<std::size_t>(i)]; }

  /// Rank-specific accessors (bounds-checked preconditions).
  float& at(int i, int j);
  float& at(int i, int j, int k);
  [[nodiscard]] float at(int i, int j, int k) const;

  /// Elementwise maximum |a - b| against another tensor of the same shape.
  [[nodiscard]] double max_abs_diff(const Tensor& other) const;

  /// Copy of sample `i` of a batched tensor (leading dim = batch): shape is
  /// this tensor's shape minus the leading dim.
  [[nodiscard]] Tensor batch_item(int i) const;

  /// Zero-copy view of sample `i` of a batched tensor (leading dim =
  /// batch). Preferred over `batch_item` wherever the sample is only read;
  /// the view is invalidated by any mutation of this tensor.
  [[nodiscard]] ConstSpan batch_span(int i) const;

 private:
  /// Direct copy-construction from raw storage (single write; the public
  /// fill constructor would zero-fill first). Backs `from_data`.
  Tensor(Shape shape, const float* src);

  Shape shape_;
  std::vector<float> data_;
};

/// Deterministic synthetic activations: a hash-pattern fill in [-1, 1),
/// varied by `salt` so batched samples differ. The one input generator
/// behind the engine's bit-exactness tests and benches (a drifted copy
/// would silently decouple what they exercise).
[[nodiscard]] Tensor patterned_tensor(Shape shape, int salt);

/// Stack equal-shaped samples into one batched tensor of shape
/// [N, ...sample]. Sample rank must be <= 3 (the result honors the rank-4
/// cap). The inverse of repeated `batch_item`.
[[nodiscard]] Tensor stack_batch(const std::vector<Tensor>& samples);

}  // namespace iob::nn
