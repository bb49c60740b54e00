#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "common/expect.hpp"
#include "nn/gemm.hpp"
#include "nn/workspace.hpp"

namespace iob::nn {

// ---- Layer (non-virtual forward, batched oracle loop) -----------------------

Tensor Layer::forward(const Tensor& input) const {
  Tensor out(output_shape(input.shape()));
  forward_into(input.data(), input.shape(), 1, out.data(), detail::thread_workspace());
  return out;
}

Tensor Layer::forward_batched_reference(const Tensor& input, int batch) const {
  IOB_EXPECTS(input.rank() >= 2 && input.shape()[0] == batch,
              "batched input must carry the batch as its leading dim");
  const Shape sample_shape(input.shape().begin() + 1, input.shape().end());
  const Shape out_sample = output_shape(sample_shape);
  Shape out_shape{batch};
  out_shape.insert(out_shape.end(), out_sample.begin(), out_sample.end());
  Tensor out(out_shape);
  const std::int64_t out_stride = shape_elems(out_sample);
  for (int s = 0; s < batch; ++s) {
    const Tensor y = forward_reference(input.batch_item(s));
    std::copy(y.data(), y.data() + out_stride,
              out.data() + static_cast<std::ptrdiff_t>(s) * out_stride);
  }
  return out;
}

void Layer::forward_into_fused(const float* in, const Shape& in_shape, int batch, float* out,
                               Workspace& ws, const GemmTail& tail) const {
  (void)in;
  (void)in_shape;
  (void)batch;
  (void)out;
  (void)ws;
  (void)tail;
  IOB_EXPECTS(false, "layer does not support gemm-tail fusion");
}

// ---- FullyConnected ---------------------------------------------------------

FullyConnected::FullyConnected(int in_features, int out_features, std::vector<float> weights,
                               std::vector<float> bias)
    : in_features_(in_features),
      out_features_(out_features),
      weights_(std::move(weights)),
      bias_(std::move(bias)) {
  IOB_EXPECTS(in_features_ > 0 && out_features_ > 0, "feature counts must be positive");
  IOB_EXPECTS(weights_.size() ==
                  static_cast<std::size_t>(in_features_) * static_cast<std::size_t>(out_features_),
              "weight size mismatch");
  IOB_EXPECTS(bias_.size() == static_cast<std::size_t>(out_features_), "bias size mismatch");
  // Repack [out][in] -> [in][out] once so the GEMM streams B rows
  // contiguously; the k-th term of every output stays the k-th input.
  packed_.resize(weights_.size());
  pack_k_major(weights_.data(), out_features_, in_features_, packed_.data());
}

void FullyConnected::forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                                  Workspace& ws) const {
  forward_into_fused(in, in_shape, batch, out, ws, GemmTail{});
}

void FullyConnected::forward_into_fused(const float* in, const Shape& in_shape, int batch,
                                        float* out, Workspace& ws, const GemmTail& tail) const {
  (void)ws;
  IOB_EXPECTS(shape_elems(in_shape) == in_features_, "fc input size mismatch");
  gemm_blocked(batch, out_features_, in_features_, in, packed_.data(), bias_.data(), out, tail);
}

Tensor FullyConnected::forward_reference(const Tensor& input) const {
  IOB_EXPECTS(input.size() == in_features_, "fc input size mismatch");
  Tensor out(Shape{out_features_});
  for (int o = 0; o < out_features_; ++o) {
    float acc = bias_[static_cast<std::size_t>(o)];
    const float* w = &weights_[static_cast<std::size_t>(o) * in_features_];
    for (int i = 0; i < in_features_; ++i) acc += w[i] * input[i];
    out[o] = acc;
  }
  return out;
}

Tensor FullyConnected::forward_batched_reference(const Tensor& input, int batch) const {
  IOB_EXPECTS(input.rank() >= 2 && input.shape()[0] == batch,
              "batched input must carry the batch as its leading dim");
  IOB_EXPECTS(input.size() == static_cast<std::int64_t>(batch) * in_features_,
              "fc batched input size mismatch");
  Tensor out(Shape{batch, out_features_});
  // Weight rows stream once per batch (o outer, sample inner) — the
  // amortization the hub's batched pass models. Per-(sample, output)
  // accumulation order matches forward() exactly.
  for (int o = 0; o < out_features_; ++o) {
    const float* w = &weights_[static_cast<std::size_t>(o) * in_features_];
    for (int s = 0; s < batch; ++s) {
      const float* x = input.data() + static_cast<std::ptrdiff_t>(s) * in_features_;
      float acc = bias_[static_cast<std::size_t>(o)];
      for (int i = 0; i < in_features_; ++i) acc += w[i] * x[i];
      out[static_cast<std::int64_t>(s) * out_features_ + o] = acc;
    }
  }
  return out;
}

Shape FullyConnected::output_shape(const Shape& input) const {
  IOB_EXPECTS(shape_elems(input) == in_features_, "fc input size mismatch");
  return Shape{out_features_};
}

std::uint64_t FullyConnected::macs(const Shape& input) const {
  (void)input;
  return static_cast<std::uint64_t>(in_features_) * static_cast<std::uint64_t>(out_features_);
}

std::uint64_t FullyConnected::param_count() const {
  return static_cast<std::uint64_t>(in_features_) * out_features_ + out_features_;
}

std::string FullyConnected::describe() const {
  std::ostringstream os;
  os << "fc " << in_features_ << "->" << out_features_;
  return os.str();
}

// ---- Relu -------------------------------------------------------------------

Relu::Relu(float cap) : cap_(cap) {}

Tensor Relu::forward_reference(const Tensor& input) const {
  Tensor out = input;
  for (std::int64_t i = 0; i < out.size(); ++i) {
    float v = std::max(0.0f, out[i]);
    if (cap_ > 0.0f) v = std::min(cap_, v);
    out[i] = v;
  }
  return out;
}

void Relu::forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                        Workspace& ws) const {
  (void)ws;
  const std::int64_t total = shape_elems(in_shape) * batch;
  for (std::int64_t i = 0; i < total; ++i) {
    float v = std::max(0.0f, in[i]);
    if (cap_ > 0.0f) v = std::min(cap_, v);
    out[i] = v;
  }
}

Shape Relu::output_shape(const Shape& input) const { return input; }

std::uint64_t Relu::macs(const Shape& input) const {
  // Count one op per element (comparison); negligible but non-zero.
  return static_cast<std::uint64_t>(shape_elems(input));
}

std::string Relu::describe() const { return cap_ > 0.0f ? "relu6" : "relu"; }

// ---- GlobalAvgPool ----------------------------------------------------------

Shape GlobalAvgPool::output_shape(const Shape& input) const {
  IOB_EXPECTS(input.size() == 2 || input.size() == 3, "global pool expects LC or HWC input");
  return Shape{input.back()};
}

Tensor GlobalAvgPool::forward_reference(const Tensor& input) const {
  const int c = input.shape().back();
  const std::int64_t spatial = shape_elems(input.shape()) / c;
  Tensor out(Shape{c});
  for (std::int64_t i = 0; i < input.size(); ++i) {
    out[i % c] += input[i];
  }
  for (int ch = 0; ch < c; ++ch) out[ch] /= static_cast<float>(spatial);
  return out;
}

void GlobalAvgPool::forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                                 Workspace& ws) const {
  (void)ws;
  IOB_EXPECTS(in_shape.size() == 2 || in_shape.size() == 3, "global pool expects LC or HWC input");
  const int c = in_shape.back();
  const std::int64_t elems = shape_elems(in_shape);
  const std::int64_t spatial = elems / c;
  // Same per-channel accumulation order as the seed loop (channel ch sums
  // positions ch, ch+c, ch+2c, ... in storage order), expressed as nested
  // loops so the hot path skips the seed's per-element modulo.
  for (int s = 0; s < batch; ++s) {
    const float* ib = in + s * elems;
    float* ob = out + static_cast<std::int64_t>(s) * c;
    for (int ch = 0; ch < c; ++ch) ob[ch] = 0.0f;
    for (std::int64_t sp = 0; sp < spatial; ++sp) {
      const float* row = ib + sp * c;
      for (int ch = 0; ch < c; ++ch) ob[ch] += row[ch];
    }
    for (int ch = 0; ch < c; ++ch) ob[ch] /= static_cast<float>(spatial);
  }
}

std::uint64_t GlobalAvgPool::macs(const Shape& input) const {
  return static_cast<std::uint64_t>(shape_elems(input));
}

std::string GlobalAvgPool::describe() const { return "global-avgpool"; }

// ---- Softmax ----------------------------------------------------------------

namespace {

/// Numerically-stable softmax over one contiguous sample, in place. The
/// single implementation behind forward_into and forward_reference keeps
/// their bit-exactness contract by construction.
void softmax_inplace(float* x, std::int64_t n) {
  float mx = -std::numeric_limits<float>::infinity();
  for (std::int64_t i = 0; i < n; ++i) mx = std::max(mx, x[i]);
  double sum = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    x[i] = std::exp(x[i] - mx);
    sum += x[i];
  }
  for (std::int64_t i = 0; i < n; ++i) x[i] = static_cast<float>(x[i] / sum);
}

}  // namespace

Tensor Softmax::forward_reference(const Tensor& input) const {
  Tensor out = input;
  softmax_inplace(out.data(), out.size());
  return out;
}

void Softmax::forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                           Workspace& ws) const {
  (void)ws;
  const std::int64_t stride = shape_elems(in_shape);
  std::memcpy(out, in, static_cast<std::size_t>(stride * batch) * sizeof(float));
  for (int s = 0; s < batch; ++s) {
    softmax_inplace(out + static_cast<std::ptrdiff_t>(s) * stride, stride);
  }
}

Shape Softmax::output_shape(const Shape& input) const { return input; }

std::uint64_t Softmax::macs(const Shape& input) const {
  return static_cast<std::uint64_t>(shape_elems(input)) * 2;  // exp + normalize
}

}  // namespace iob::nn
