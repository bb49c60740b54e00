#include "nn/model.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/expect.hpp"
#include "nn/gemm.hpp"
#include "nn/layers.hpp"
#include "nn/workspace.hpp"

namespace iob::nn {

Model::Model(std::string name, Shape input_shape)
    : name_(std::move(name)), input_shape_(std::move(input_shape)),
      current_output_shape_(input_shape_) {
  IOB_EXPECTS(!input_shape_.empty(), "model input shape must be non-empty");
  max_activation_elems_ = shape_elems(input_shape_);
}

void Model::add(LayerPtr layer) {
  IOB_EXPECTS(layer != nullptr, "layer must not be null");
  const Shape out = layer->output_shape(current_output_shape_);

  LayerProfile p;
  p.describe = layer->describe();
  p.macs = layer->macs(current_output_shape_);
  p.params = layer->param_count();
  p.output_shape = out;
  p.output_bytes_f32 = shape_elems(out) * 4;
  p.output_bytes_i8 = shape_elems(out);
  profiles_.push_back(std::move(p));

  max_activation_elems_ = std::max(max_activation_elems_, shape_elems(out));
  max_scratch_elems_ = std::max(max_scratch_elems_, layer->scratch_elems(current_output_shape_));
  max_bordered_elems_ =
      std::max(max_bordered_elems_, layer->bordered_elems(current_output_shape_));
  layers_.push_back(std::move(layer));
  fuse_with_next_.push_back(false);
  // Fusion plan: a GEMM-lowered or depthwise producer absorbs an
  // immediately following Relu into its epilogue (one ping-pong hop saved,
  // bit-exact) — the same rule the int8 lowering applies.
  const std::size_t j = layers_.size() - 1;
  if (j > 0 && layers_[j - 1]->supports_gemm_tail_fusion() &&
      dynamic_cast<const Relu*>(layers_[j].get()) != nullptr) {
    fuse_with_next_[j - 1] = true;
  }
  current_output_shape_ = out;
}

Tensor Model::forward(const Tensor& input) const {
  return forward_range(input, 0, layers_.size());
}

Tensor Model::run_batched(const Tensor& batched_input) const {
  const int batch = batched_input.rank() >= 1 ? batched_input.shape()[0] : 0;
  const ConstSpan out = run_into(detail::thread_workspace(), batched_input);
  Shape out_shape{batch};
  const Shape& out_sample = layer_input_shape(layers_.size());
  out_shape.insert(out_shape.end(), out_sample.begin(), out_sample.end());
  return Tensor::from_data(std::move(out_shape), out.data);
}

ConstSpan Model::run_into(Workspace& ws, const float* input, int batch) const {
  return run_range_into(ws, input, batch, 0, layers_.size());
}

ConstSpan Model::run_into(Workspace& ws, const Tensor& batched_input) const {
  IOB_EXPECTS(batched_input.rank() == static_cast<int>(input_shape_.size()) + 1,
              "batched input must add one leading batch dim to the model input shape");
  const int batch = batched_input.shape()[0];
  IOB_EXPECTS(std::equal(batched_input.shape().begin() + 1, batched_input.shape().end(),
                         input_shape_.begin(), input_shape_.end()),
              "batched input sample shape mismatch");
  return run_range_into(ws, batched_input.data(), batch, 0, layers_.size());
}

ConstSpan Model::run_range_into(Workspace& ws, const float* input, int batch, std::size_t first,
                                std::size_t last) const {
  IOB_EXPECTS(first <= last && last <= layers_.size(), "invalid layer range");
  IOB_EXPECTS(batch >= 1, "batch must be >= 1");
  // Keep the "input may alias workspace staging" contract safe across a
  // growth: configure may reallocate the arena, and vector::resize
  // preserves contents, so a pointer into ping()/pong() is re-derived
  // rather than left dangling.
  const bool staged_in_ping = ws.activation_capacity() > 0 && input == ws.ping();
  const bool staged_in_pong = ws.activation_capacity() > 0 && input == ws.pong();
  ws.configure(*this, batch);
  const float* cur = staged_in_ping ? ws.ping() : staged_in_pong ? ws.pong() : input;
  for (std::size_t i = first; i < last;) {
    // Ping-pong: write into whichever arena buffer `cur` does not occupy
    // (the first hop off a caller-supplied pointer lands in ping unless the
    // caller staged there).
    float* next = cur == ws.ping() ? ws.pong() : ws.ping();
    if (fuse_with_next_[i] && i + 1 < last) {
      // Fused producer+relu pair: one hop, relu applied in the kernel
      // epilogue (`cur` then holds layer i+1's output — same shape, since
      // relu is elementwise).
      const GemmTail tail{GemmTail::Kind::kRelu, static_cast<const Relu&>(*layers_[i + 1]).cap()};
      layers_[i]->forward_into_fused(cur, layer_input_shape(i), batch, next, ws, tail);
      i += 2;
    } else {
      layers_[i]->forward_into(cur, layer_input_shape(i), batch, next, ws);
      ++i;
    }
    cur = next;
  }
  return ConstSpan{cur, shape_elems(layer_input_shape(last)) * batch};
}

Tensor Model::forward_range(const Tensor& input, std::size_t first, std::size_t last) const {
  IOB_EXPECTS(first <= last && last <= layers_.size(), "invalid layer range");
  IOB_EXPECTS(input.shape() == layer_input_shape(first),
              "forward_range input shape mismatch");
  const ConstSpan out = run_range_into(detail::thread_workspace(), input.data(), 1, first, last);
  return Tensor::from_data(layer_input_shape(last), out.data);
}

Tensor Model::forward_reference(const Tensor& input) const {
  Tensor x = input;
  for (const auto& layer : layers_) x = layer->forward_reference(x);
  return x;
}

Tensor Model::run_batched_reference(const Tensor& batched_input) const {
  IOB_EXPECTS(batched_input.rank() == static_cast<int>(input_shape_.size()) + 1,
              "batched input must add one leading batch dim to the model input shape");
  const int batch = batched_input.shape()[0];
  IOB_EXPECTS(std::equal(batched_input.shape().begin() + 1, batched_input.shape().end(),
                         input_shape_.begin(), input_shape_.end()),
              "batched input sample shape mismatch");
  Tensor x = batched_input;
  for (const auto& layer : layers_) x = layer->forward_batched_reference(x, batch);
  return x;
}

const Layer& Model::layer(std::size_t i) const {
  IOB_EXPECTS(i < layers_.size(), "layer index out of range");
  return *layers_[i];
}

std::uint64_t Model::total_macs() const {
  std::uint64_t sum = 0;
  for (const auto& p : profiles_) sum += p.macs;
  return sum;
}

std::uint64_t Model::total_params() const {
  std::uint64_t sum = 0;
  for (const auto& p : profiles_) sum += p.params;
  return sum;
}

std::int64_t Model::input_bytes_i8() const { return shape_elems(input_shape_); }

std::string Model::summary() const {
  std::ostringstream os;
  os << "model " << name_ << " (input " << shape_str(input_shape_) << ")\n";
  for (std::size_t i = 0; i < profiles_.size(); ++i) {
    const auto& p = profiles_[i];
    os << "  [" << i << "] " << p.describe << " -> " << shape_str(p.output_shape)
       << "  macs=" << p.macs << " params=" << p.params << "\n";
  }
  os << "  total: " << total_macs() << " MACs, " << total_params() << " params\n";
  return os.str();
}

}  // namespace iob::nn
