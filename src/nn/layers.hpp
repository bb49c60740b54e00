#pragma once
/// \file layers.hpp
/// Non-convolution layers: dense, relu, global average pooling, softmax.

#include <vector>

#include "nn/layer.hpp"

namespace iob::nn {

/// Fully-connected layer: input flattened to a vector, output [out_features].
class FullyConnected final : public Layer {
 public:
  /// Weights are [out_features][in_features] row-major; bias [out_features].
  FullyConnected(int in_features, int out_features, std::vector<float> weights,
                 std::vector<float> bias);

  void forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                    Workspace& ws) const override;
  [[nodiscard]] Tensor forward_reference(const Tensor& input) const override;
  [[nodiscard]] Tensor forward_batched_reference(const Tensor& input, int batch) const override;
  [[nodiscard]] bool supports_gemm_tail_fusion() const override { return true; }
  void forward_into_fused(const float* in, const Shape& in_shape, int batch, float* out,
                          Workspace& ws, const GemmTail& tail) const override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  [[nodiscard]] std::uint64_t macs(const Shape& input) const override;
  [[nodiscard]] std::uint64_t param_count() const override;
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] int in_features() const { return in_features_; }
  [[nodiscard]] int out_features() const { return out_features_; }
  [[nodiscard]] const std::vector<float>& weights() const { return weights_; }
  [[nodiscard]] const std::vector<float>& bias() const { return bias_; }

 private:
  int in_features_, out_features_;
  std::vector<float> weights_, bias_;
  std::vector<float> packed_;  ///< weights transposed to [in][out] for the GEMM
};

/// ReLU with optional clamp (ReLU6 when cap = 6).
class Relu final : public Layer {
 public:
  explicit Relu(float cap = 0.0f);  ///< cap <= 0 means uncapped

  void forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                    Workspace& ws) const override;
  [[nodiscard]] Tensor forward_reference(const Tensor& input) const override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  [[nodiscard]] std::uint64_t macs(const Shape& input) const override;
  [[nodiscard]] std::uint64_t param_count() const override { return 0; }
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] float cap() const { return cap_; }

 private:
  float cap_;
};

/// Global average pool: HWC -> C (also accepts LC -> C).
class GlobalAvgPool final : public Layer {
 public:
  void forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                    Workspace& ws) const override;
  [[nodiscard]] Tensor forward_reference(const Tensor& input) const override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  [[nodiscard]] std::uint64_t macs(const Shape& input) const override;
  [[nodiscard]] std::uint64_t param_count() const override { return 0; }
  [[nodiscard]] std::string describe() const override;
};

/// Numerically-stable softmax over the last (only) dimension of a vector.
class Softmax final : public Layer {
 public:
  void forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                    Workspace& ws) const override;
  [[nodiscard]] Tensor forward_reference(const Tensor& input) const override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  [[nodiscard]] std::uint64_t macs(const Shape& input) const override;
  [[nodiscard]] std::uint64_t param_count() const override { return 0; }
  [[nodiscard]] std::string describe() const override { return "softmax"; }
};

}  // namespace iob::nn
