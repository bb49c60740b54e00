#pragma once
/// \file qmodel.hpp
/// Int8 quantized execution path: a load-time lowering of a float `Model`
/// onto the int8 kernel suite in gemm.hpp. This is the precision the
/// paper's hub actually deploys (and the one the energy ledger prices:
/// `HubConfig::energy_per_weight_byte_j` is an int8 weight-streaming cost,
/// `partition::CostModel::transport` ships 1 B/element activations) — the
/// f32 engine stays as the accuracy oracle.
///
/// Lowering scheme (post-training, per-output-channel affine weights,
/// per-tensor affine activations):
///  * Weights are quantized at load via the `quantize.hpp` machinery, one
///    affine parameter set per output channel (the standard int8 deployment
///    scheme — a single outlier channel no longer wastes every channel's
///    resolution), repacked K-major int8, and pre-packed once more into the
///    pair-interleaved int16 operand `gemm_s8` streams.
///  * Activation ranges are calibrated at load by running the f32 model
///    over deterministic `patterned_tensor` samples and recording per-layer
///    min/max; each layer output gets its own affine params.
///  * Non-pointwise convolutions lower as one fused int8 im2col + A-panel
///    pack (pad taps = zero point) + int8 GEMM (int8 x int8 -> int32 exact
///    accumulation) + a requantize-to-int8 epilogue with the next layer's
///    scale; pointwise convs and FC layers skip the pack. An immediately
///    following ReLU fuses into that epilogue for free. The *last* weighted layer
///    dequantizes to f32 instead, and any remaining layers (softmax) run on
///    the float engine — logits keep full float resolution.
///  * Global average pooling runs natively on int8 (int32 channel sums,
///    one requantize); depthwise convolutions run a direct int8 kernel.
///    A standalone ReLU or a mid-chain softmax dequantizes, applies the
///    float op and requantizes.
///
/// Same zero-steady-state-allocation discipline as the f32 path: all
/// buffers live in the `Workspace` int8/int32 arenas (grow-only), and
/// `run_into` never touches the heap once the arenas reached their
/// high-water size. Integer accumulation is exact, so results are
/// bit-identical across batch sizes, thread counts, and the SSE2/portable
/// kernel split.

#include <cstdint>
#include <string>
#include <vector>

#include "nn/model.hpp"
#include "nn/quantize.hpp"
#include "nn/tensor.hpp"

namespace iob::nn {

class Workspace;

class QuantizedModel {
 public:
  /// Quantize `model` at load. `model` is borrowed and must outlive this
  /// object (the float tail executes on its layers). Calibration runs
  /// `calibration_samples` deterministic patterned inputs through the f32
  /// engine to pick per-layer activation ranges.
  explicit QuantizedModel(const Model& model, int calibration_samples = 8);

  /// Allocation-free hot path, mirroring `Model::run_into`: quantize
  /// `batch` contiguous f32 samples from `input` into the int8 arena, run
  /// the int8 chain, dequantize at the float tail, and return a view of the
  /// f32 outputs (valid until the workspace is reused). `input` must not
  /// alias the workspace arenas.
  ConstSpan run_into(Workspace& ws, const float* input, int batch) const;

  /// Layer-range core, mirroring `Model::run_range_into`: run source layers
  /// [first, last) only — the int8 building block for split execution across
  /// venues. The boundary contract is f32-in / f32-out: `input` holds the
  /// f32 activation entering layer `first` (the model input for first == 0),
  /// which is requantized with the boundary op's calibrated input params;
  /// the returned span holds the f32 dequantization of the range's final
  /// int8 activation (or the float tail's output when `last` reaches it).
  /// Because dequantize(q) -> requantize with the same affine params is
  /// exactly value-preserving, chaining `[0,k)` into `[k,n)` reproduces the
  /// unsplit `run_into` bit-for-bit (the split property test asserts it).
  /// Both `first` and `last` must be feasible boundaries (see
  /// `feasible_boundary`): a fused conv+relu pair lowers onto one int8 op,
  /// so the seam between them cannot be cut.
  ConstSpan run_range_into(Workspace& ws, const float* input, int batch, std::size_t first,
                           std::size_t last) const;

  /// True when source-layer index `k` is a cut the int8 lowering can honor:
  /// 0, layer_count(), any float-tail index, or the start of a lowered op.
  /// False only strictly inside a fused conv+relu pair.
  [[nodiscard]] bool feasible_boundary(std::size_t k) const;

  /// Calibrated affine params of the activation crossing boundary `k` (the
  /// input params of the op starting at layer k) — what the leaf serializes
  /// with (`serialize_activation`) so the hub requantizes into the same
  /// code points. Must be a feasible boundary inside the int8 span
  /// (k < float_tail_start()).
  [[nodiscard]] const QuantParams& boundary_params(std::size_t k) const;

  /// Convenience single-sample pass on the per-thread workspace.
  [[nodiscard]] Tensor forward(const Tensor& input) const;

  [[nodiscard]] const Model& source() const { return *model_; }
  [[nodiscard]] const std::string& name() const { return model_->name(); }
  [[nodiscard]] const Shape& input_shape() const { return model_->input_shape(); }

  /// Affine params of the quantized input staging.
  [[nodiscard]] const QuantParams& input_params() const { return input_q_; }

  /// Total int8 weight footprint (what `SessionConfig::weight_bytes`
  /// prices: one byte per parameter, biases kept f32).
  [[nodiscard]] std::int64_t weight_bytes() const { return weight_bytes_; }

  /// Workspace sizing (per sample): int8 activations, int32 GEMM
  /// accumulator, packed-A panels, and (whatever the batch) the tap-pair
  /// sample.
  [[nodiscard]] std::int64_t max_activation_elems() const {
    return model_->max_activation_elems();
  }
  [[nodiscard]] std::int64_t max_acc_elems() const { return max_acc_elems_; }
  /// Packed-A panel units (int32 k-pairs) per sample of the widest
  /// non-pointwise conv — the `Workspace::reserve_pack_a_s8` sizing quantum.
  [[nodiscard]] std::int64_t max_pack_a_elems() const { return max_pack_a_elems_; }
  /// Int16 elements of the widest depthwise op's one-sample tap-pair sample
  /// (`dw_pair_sample_elems`) — the `Workspace::reserve_dw_pairs_s16` size.
  [[nodiscard]] std::int64_t max_dw_pair_elems() const { return max_dw_pair_elems_; }

  /// Number of lowered int8 ops (fused pairs count once).
  [[nodiscard]] std::size_t op_count() const { return ops_.size(); }

  /// Index of the first source layer that runs on the float engine (the
  /// float tail); == layer_count() when the whole chain runs int8.
  [[nodiscard]] std::size_t float_tail_start() const { return tail_start_; }

 private:
  struct Op {
    enum class Kind { kGemm, kDwConv, kRelu, kGlobalAvg, kSoftmax } kind = Kind::kGemm;
    Shape in_shape, out_shape;
    QuantParams in_q, out_q;
    std::size_t src_begin = 0;           ///< first source layer this op lowers
    // gemm / dwconv (per-output-channel weight quantization):
    std::vector<std::int8_t> qweights;   ///< K-major int8 ([K][N] / [k*k][c])
    std::vector<std::int16_t> wop16;     ///< pair-interleaved int16 operand
    std::vector<float> bias;
    std::vector<float> col_scales;       ///< in_q.scale * w_scale[n], per column
    std::vector<std::int32_t> wzps;      ///< per-channel weight zero points
    float relu_cap = -1.0f;              ///< fused relu (<0 none, 0 uncapped, >0 cap)
    bool dequant_out = false;            ///< last weighted op: epilogue writes f32
    // conv geometry (conv1d maps onto ih x 1 images; fc leaves is_conv off):
    bool is_conv = false;
    bool pointwise = false;              ///< 1x1 stride-1: input IS the patch matrix
    int ih = 0, iw = 0, ic = 0, kh = 1, kw = 1, sh = 1, sw = 1;
    int pad_top = 0, pad_left = 0, oh = 0, ow = 0, oc = 0;
    std::int64_t rows_per_sample = 1;    ///< GEMM M rows contributed per sample
    std::int64_t k_dim = 0;              ///< GEMM K
    // elementwise:
    float elt_cap = 0.0f;                ///< standalone relu cap
  };

  void run_op(const Op& op, Workspace& ws, const std::int8_t* in8, std::int8_t* out8,
              float* outf, int batch) const;

  /// Index of the op whose `src_begin == k` (k must be a feasible boundary
  /// inside the int8 span).
  [[nodiscard]] std::size_t op_index_of(std::size_t k) const;

  const Model* model_;
  QuantParams input_q_;
  std::vector<Op> ops_;
  std::size_t tail_start_ = 0;
  std::int64_t weight_bytes_ = 0;
  std::int64_t max_acc_elems_ = 0;
  std::int64_t max_pack_a_elems_ = 0;
  std::int64_t max_dw_pair_elems_ = 0;
};

}  // namespace iob::nn
