#pragma once
/// \file model.hpp
/// Sequential model: an ordered layer chain plus the per-layer profile
/// (MACs, params, activation bytes) that drives the partitioning optimizer
/// and the compute-energy models.

#include <cstdint>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace iob::nn {

/// Static per-layer execution profile for a fixed input shape.
struct LayerProfile {
  std::string describe;
  std::uint64_t macs = 0;
  std::uint64_t params = 0;
  Shape output_shape;
  std::int64_t output_bytes_f32 = 0;  ///< activation size leaving this layer
  std::int64_t output_bytes_i8 = 0;   ///< same, int8-quantized transport
};

class Workspace;

class Model {
 public:
  Model(std::string name, Shape input_shape);

  /// Append a layer; validates shape compatibility eagerly.
  void add(LayerPtr layer);

  /// Run the full chain.
  [[nodiscard]] Tensor forward(const Tensor& input) const;

  /// Run the full chain over a batched input (shape [N, ...input_shape]).
  /// One pass streams each layer's weights once for the whole batch — the
  /// hub-side amortization move — while per-sample outputs stay bit-exact
  /// equal to `forward` on each sample.
  [[nodiscard]] Tensor run_batched(const Tensor& batched_input) const;

  /// Allocation-free hot path: run `batch` contiguous samples from `input`
  /// through the lowered layer chain, ping-ponging activations inside `ws`.
  /// Returns a view of the final activations (into `ws`, or `input` itself
  /// for an empty model) valid until the workspace is reused. Zero heap
  /// allocations once `ws` has reached its high-water size (grow-only).
  /// `input` may alias `ws` staging (`Workspace::ping()`/`pong()`): staged
  /// samples survive an internal arena growth (pointers are re-derived and
  /// resize preserves contents).
  ConstSpan run_into(Workspace& ws, const float* input, int batch) const;

  /// Validating overload over a batched tensor (shape [N, ...input_shape]).
  ConstSpan run_into(Workspace& ws, const Tensor& batched_input) const;

  /// Layer-range core of `run_into`: run layers [first, last) only — the
  /// building block for split execution across leaf/hub/cloud venues.
  ConstSpan run_range_into(Workspace& ws, const float* input, int batch, std::size_t first,
                           std::size_t last) const;

  /// Run layers [first, last) only — the building block for split execution
  /// across leaf/hub/cloud venues. `input` must have the shape produced by
  /// layer first-1 (or the model input for first == 0).
  [[nodiscard]] Tensor forward_range(const Tensor& input, std::size_t first,
                                     std::size_t last) const;

  /// Seed-loop oracle chain: executes every layer's `forward_reference`
  /// (the original naive nested loops). The lowered engine is tested — and
  /// benchmarked — bit-exact against this.
  [[nodiscard]] Tensor forward_reference(const Tensor& input) const;

  /// Batched seed-loop oracle (see `forward_reference`).
  [[nodiscard]] Tensor run_batched_reference(const Tensor& batched_input) const;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Shape& input_shape() const { return input_shape_; }
  [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }
  [[nodiscard]] const Layer& layer(std::size_t i) const;

  /// Per-layer profiles (computed at construction from shapes alone).
  [[nodiscard]] const std::vector<LayerProfile>& profiles() const { return profiles_; }

  /// Input shape of layer `i`: the model input for i == 0, else layer
  /// i-1's output. For a split at `i` (0 <= i <= layer_count()) this is the
  /// boundary activation the leaf ships and the hub resumes from; i ==
  /// layer_count() is the model output.
  [[nodiscard]] const Shape& layer_input_shape(std::size_t i) const {
    return i == 0 ? input_shape_ : profiles_[i - 1].output_shape;
  }

  [[nodiscard]] std::uint64_t total_macs() const;
  [[nodiscard]] std::uint64_t total_params() const;

  /// Input tensor size in bytes as raw sensor int8 transport.
  [[nodiscard]] std::int64_t input_bytes_i8() const;

  /// Largest per-sample activation (input or any layer output), in floats —
  /// what one ping-pong workspace buffer must hold per batched sample.
  [[nodiscard]] std::int64_t max_activation_elems() const { return max_activation_elems_; }

  /// Largest per-sample im2col scratch any layer requests, in floats.
  [[nodiscard]] std::int64_t max_scratch_elems() const { return max_scratch_elems_; }

  /// Largest bordered sample any layer gathers patches from, in elements
  /// (one sample, whatever the batch).
  [[nodiscard]] std::int64_t max_bordered_elems() const { return max_bordered_elems_; }

  /// Multi-line layer table (for reports and examples).
  [[nodiscard]] std::string summary() const;

 private:
  std::string name_;
  Shape input_shape_;
  std::vector<LayerPtr> layers_;
  /// Fusion plan: fuse_with_next_[i] means layer i lowers onto the GEMM or
  /// the depthwise kernel and layer i+1 is a Relu it absorbs into its
  /// epilogue — `run_range_into` then executes the pair as one hop.
  /// Results are bit-exact either way (tests assert it); fusion only skips
  /// a workspace ping-pong.
  std::vector<char> fuse_with_next_;
  std::vector<LayerProfile> profiles_;
  Shape current_output_shape_;
  std::int64_t max_activation_elems_ = 0;
  std::int64_t max_scratch_elems_ = 0;
  std::int64_t max_bordered_elems_ = 0;
};

}  // namespace iob::nn
