#pragma once
/// \file layer.hpp
/// Layer interface for the sequential inference engine. Each layer reports
/// its MAC count and output shape for a given input shape — the compute and
/// traffic quantities the `partition/` optimizer splits on.

#include <cstdint>
#include <memory>
#include <string>

#include "nn/tensor.hpp"

namespace iob::nn {

class Workspace;
struct GemmTail;

enum class Padding { kValid, kSame };

class Layer {
 public:
  virtual ~Layer() = default;

  /// Single-sample convenience: allocate the output tensor and run
  /// `forward_into` on the calling thread's workspace. Tests and the int8
  /// calibration call it; the engine runs `forward_into` directly.
  [[nodiscard]] Tensor forward(const Tensor& input) const;

  /// Allocation-free execution, the one per-layer implementation: read
  /// `batch` contiguous samples of shape `in_shape` from `in`, write
  /// `batch` output samples to `out` (which must hold batch *
  /// elems(output_shape(in_shape)) floats; `out` must not alias `in`).
  /// Results are bit-exact vs `forward_reference` per sample, and never
  /// touch the heap beyond grow-only workspace scratch.
  virtual void forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                            Workspace& ws) const = 0;

  /// Seed-loop oracle: the original naive nested-loop implementation, kept
  /// verbatim as the bit-exactness reference for the lowered kernels (and
  /// as the baseline the nn_infer bench measures speedups against).
  [[nodiscard]] virtual Tensor forward_reference(const Tensor& input) const = 0;

  /// Batched seed-loop oracle over a [N, ...sample] input. The base loops
  /// `forward_reference` per sample; layers with weights override it with
  /// a sample-innermost loop that streams each weight once per batch.
  [[nodiscard]] virtual Tensor forward_batched_reference(const Tensor& input, int batch) const;

  /// Per-sample im2col scratch floats `forward_into` needs for `in_shape`
  /// (0 for layers that lower without patch extraction).
  [[nodiscard]] virtual std::int64_t scratch_elems(const Shape& in_shape) const {
    (void)in_shape;
    return 0;
  }

  /// Elements of the one-sample zero-bordered copy the patch extraction
  /// gathers from (`bordered_sample_elems`; 0 for layers without one).
  [[nodiscard]] virtual std::int64_t bordered_elems(const Shape& in_shape) const {
    (void)in_shape;
    return 0;
  }

  /// True for layers whose kernel (`gemm_blocked` or `dwconv2d_nhwc`) can
  /// absorb a directly following `Relu` into its epilogue as a `GemmTail`
  /// (Conv2D, DepthwiseConv2D, Conv1D, FullyConnected). Such layers must
  /// also override `forward_into_fused`.
  [[nodiscard]] virtual bool supports_gemm_tail_fusion() const { return false; }

  /// Fused execution: `forward_into` with the relu `tail` applied inside the
  /// kernel epilogue — output shape and contents equal running this layer
  /// then the relu, with one ping-pong hop saved. Only called when
  /// `supports_gemm_tail_fusion()` is true.
  virtual void forward_into_fused(const float* in, const Shape& in_shape, int batch, float* out,
                                  Workspace& ws, const GemmTail& tail) const;

  /// Output shape for an input shape (throws on incompatible input).
  [[nodiscard]] virtual Shape output_shape(const Shape& input) const = 0;

  /// Multiply-accumulate operations for an input shape.
  [[nodiscard]] virtual std::uint64_t macs(const Shape& input) const = 0;

  /// Trainable parameter count.
  [[nodiscard]] virtual std::uint64_t param_count() const = 0;

  /// Layer type + config string, e.g. "conv2d 3x3x8 s1 same".
  [[nodiscard]] virtual std::string describe() const = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace iob::nn
