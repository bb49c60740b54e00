#include "nn/workspace.hpp"

#include "common/expect.hpp"
#include "nn/model.hpp"
#include "nn/qmodel.hpp"

namespace iob::nn {

void Workspace::reserve_activations(std::int64_t elems) {
  IOB_EXPECTS(elems >= 0, "activation size must be non-negative");
  if (static_cast<std::int64_t>(ping_.size()) < elems) {
    ping_.resize(static_cast<std::size_t>(elems));
    pong_.resize(static_cast<std::size_t>(elems));
  }
}

void Workspace::reserve_im2col(std::int64_t elems) {
  IOB_EXPECTS(elems >= 0, "im2col size must be non-negative");
  if (static_cast<std::int64_t>(im2col_.size()) < elems) {
    im2col_.resize(static_cast<std::size_t>(elems));
  }
}

void Workspace::reserve_activations_s8(std::int64_t elems) {
  IOB_EXPECTS(elems >= 0, "activation size must be non-negative");
  if (static_cast<std::int64_t>(ping8_.size()) < elems) {
    ping8_.resize(static_cast<std::size_t>(elems));
    pong8_.resize(static_cast<std::size_t>(elems));
  }
}

void Workspace::reserve_acc(std::int64_t elems) {
  IOB_EXPECTS(elems >= 0, "accumulator size must be non-negative");
  if (static_cast<std::int64_t>(acc_.size()) < elems) {
    acc_.resize(static_cast<std::size_t>(elems));
  }
}

void Workspace::reserve_pack_a_s8(std::int64_t elems) {
  IOB_EXPECTS(elems >= 0, "pack size must be non-negative");
  if (static_cast<std::int64_t>(pack8_.size()) < elems) {
    pack8_.resize(static_cast<std::size_t>(elems));
  }
}

void Workspace::reserve_bordered(std::int64_t elems) {
  IOB_EXPECTS(elems >= 0, "bordered sample size must be non-negative");
  if (static_cast<std::int64_t>(bordered_.size()) < elems) {
    bordered_.resize(static_cast<std::size_t>(elems));
  }
}

void Workspace::reserve_bordered_s16(std::int64_t elems) {
  IOB_EXPECTS(elems >= 0, "bordered sample size must be non-negative");
  if (static_cast<std::int64_t>(bordered16_.size()) < elems) {
    bordered16_.resize(static_cast<std::size_t>(elems));
  }
}

/// Slack for aligning the tap-pair arena: one cache line of int16.
constexpr std::int64_t kCacheLineS16 = 64 / sizeof(std::int16_t);

void Workspace::reserve_dw_pairs_s16(std::int64_t elems) {
  IOB_EXPECTS(elems >= 0, "tap-pair sample size must be non-negative");
  if (static_cast<std::int64_t>(dw_pairs16_.size()) < elems + kCacheLineS16) {
    dw_pairs16_.resize(static_cast<std::size_t>(elems + kCacheLineS16));
  }
}

std::int16_t* Workspace::dw_pairs_s16() {
  const auto at = reinterpret_cast<std::uintptr_t>(dw_pairs16_.data());
  return dw_pairs16_.data() + (-at & 63) / sizeof(std::int16_t);
}

void Workspace::configure(const Model& model, int max_batch) {
  IOB_EXPECTS(max_batch >= 1, "max_batch must be >= 1");
  reserve_activations(model.max_activation_elems() * max_batch);
  reserve_im2col(model.max_scratch_elems() * max_batch);
  reserve_bordered(model.max_bordered_elems());
}

void Workspace::configure(const QuantizedModel& model, int max_batch) {
  IOB_EXPECTS(max_batch >= 1, "max_batch must be >= 1");
  reserve_activations_s8(model.max_activation_elems() * max_batch);
  reserve_acc(model.max_acc_elems() * max_batch);
  // +3 covers the panel round-up (ceil(M / kMr) * kMr rows): the worst case
  // adds 3 rows x kp <= 3 x max_pack_a_elems over the exact size.
  reserve_pack_a_s8(model.max_pack_a_elems() * (static_cast<std::int64_t>(max_batch) + 3));
  // Every int8 conv lowers a source layer, so the f32 bound sizes it too.
  reserve_bordered_s16(model.source().max_bordered_elems());
  reserve_dw_pairs_s16(model.max_dw_pair_elems());
  // The float tail (and the dequantized logits) live in the f32 arena.
  reserve_activations(model.max_activation_elems() * max_batch);
}

namespace detail {

Workspace& thread_workspace() {
  static thread_local Workspace ws;
  return ws;
}

}  // namespace detail

}  // namespace iob::nn
