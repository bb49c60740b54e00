#pragma once
/// \file workspace.hpp
/// Reusable inference arena: two ping-pong activation buffers, an im2col
/// scratch pad, the one-sample zero-bordered copy each non-pointwise conv
/// gathers its patch rows from (f32, or widened int16 for the int8
/// engine), and the int8 engine's own arenas: int8 ping-pong buffers, the
/// int32 accumulator, the packed-A panels and the int8 depthwise's
/// one-sample tap-pair sample. Sized once per (model, max batch) — or
/// grown lazily to the high-water mark — and reused across inferences, so the
/// steady-state inference loop (`Model::run_into`) performs zero heap
/// allocations (interposer-verified by bench/nn_infer.cpp and
/// tests/nn_engine_test.cpp).
///
/// Thread model: a Workspace is single-threaded scratch. One workspace per
/// thread (e.g. the `thread_workspace()` used by the Tensor-returning
/// convenience wrappers, or one per `core::SweepRunner` worker) keeps
/// parallel sweeps race-free; results never depend on which workspace ran
/// the pass, since every buffer is fully overwritten before it is read.

#include <cstdint>
#include <vector>

namespace iob::nn {

class Model;
class QuantizedModel;

class Workspace {
 public:
  /// Grow the ping-pong activation buffers to hold `elems` floats each.
  /// Grow-only: no allocation when the capacity already suffices.
  void reserve_activations(std::int64_t elems);

  /// Grow the im2col scratch pad to `elems` floats. Grow-only.
  void reserve_im2col(std::int64_t elems);

  /// Grow the int8 ping-pong activation arenas to `elems` bytes each
  /// (the quantized engine's counterpart of `reserve_activations`).
  void reserve_activations_s8(std::int64_t elems);

  /// Grow the int32 GEMM accumulator pad to `elems` int32s — the staging
  /// tile between `gemm_s8` and the requantize/dequantize epilogue.
  void reserve_acc(std::int64_t elems);

  /// Grow the int8 packed-A panel arena to `elems` int32 pair units (the
  /// `im2col_pack_a_s8_nhwc` operand, the int8 conv's patch matrix).
  /// Grow-only.
  void reserve_pack_a_s8(std::int64_t elems);

  /// Grow the bordered-sample arenas to `elems` floats (`im2col_nhwc`) and
  /// `elems` int16 (`im2col_pack_a_s8_nhwc`): one sample, whatever the
  /// batch (`bordered_sample_elems`). Grow-only.
  void reserve_bordered(std::int64_t elems);
  void reserve_bordered_s16(std::int64_t elems);

  /// Grow the int8 depthwise tap-pair arena to `elems` int16: one sample's
  /// zero-bordered pairs of neighbouring pixels (`dw_pair_sample_elems`),
  /// whatever the batch. Grow-only.
  void reserve_dw_pairs_s16(std::int64_t elems);
  /// The tap-pair arena, from its first 64-byte boundary: the kernel reads
  /// it in whole vectors, and a vector split across two cache lines costs
  /// two loads.
  [[nodiscard]] std::int16_t* dw_pairs_s16();

  /// Size every buffer for `model` at batch sizes up to `max_batch` in one
  /// shot (the "sized once per (model, max_batch)" entry point). Subsequent
  /// `Model::run_into` calls at any batch <= max_batch never allocate.
  void configure(const Model& model, int max_batch);

  /// int8-engine counterpart: sizes the int8 arenas, the int32 accumulator,
  /// AND the f32 arenas (the quantized chain dequantizes into the float
  /// arena for its float tail). `QuantizedModel::run_into` at any batch <=
  /// max_batch then never allocates.
  void configure(const QuantizedModel& model, int max_batch);

  [[nodiscard]] float* ping() { return ping_.data(); }
  [[nodiscard]] float* pong() { return pong_.data(); }
  [[nodiscard]] float* im2col() { return im2col_.data(); }
  [[nodiscard]] std::int8_t* ping8() { return ping8_.data(); }
  [[nodiscard]] std::int8_t* pong8() { return pong8_.data(); }
  [[nodiscard]] std::int32_t* acc() { return acc_.data(); }
  [[nodiscard]] std::int32_t* pack_a_s8() { return pack8_.data(); }
  [[nodiscard]] float* bordered() { return bordered_.data(); }
  [[nodiscard]] std::int16_t* bordered_s16() { return bordered16_.data(); }

  [[nodiscard]] std::int64_t activation_capacity() const {
    return static_cast<std::int64_t>(ping_.size());
  }
  [[nodiscard]] std::int64_t im2col_capacity() const {
    return static_cast<std::int64_t>(im2col_.size());
  }

 private:
  std::vector<float> ping_, pong_, im2col_, bordered_;
  std::vector<std::int8_t> ping8_, pong8_;
  std::vector<std::int16_t> bordered16_, dw_pairs16_;
  std::vector<std::int32_t> acc_, pack8_;
};

namespace detail {
/// Per-thread scratch workspace backing the Tensor-returning convenience
/// APIs (`Model::forward`, `Layer::forward`, `run_batched`). Grows to each
/// thread's high-water mark and is reused for the life of the thread.
Workspace& thread_workspace();
}  // namespace detail

}  // namespace iob::nn
