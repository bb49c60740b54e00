#include "nn/qmodel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/expect.hpp"
#include "nn/conv.hpp"
#include "nn/gemm.hpp"
#include "nn/layers.hpp"
#include "nn/workspace.hpp"

namespace iob::nn {

namespace {

/// Per-output-channel quantized weights, transposed to the K-major [K][N]
/// layout the int8 GEMM's B operand packing expects.
struct QWeights {
  std::vector<std::int8_t> km;   ///< K-major [cols][rows] int8
  std::vector<float> scales;     ///< per-row (= per-column of km) scale
  std::vector<std::int32_t> zps; ///< per-row zero point
};

/// Quantize each output channel (row of the [rows][cols] matrix) with its
/// own affine params via the quantize.hpp machinery, then transpose.
QWeights quantize_weights_k_major(const std::vector<float>& w, std::int64_t rows,
                                  std::int64_t cols) {
  QWeights out;
  out.km.resize(w.size());
  out.scales.resize(static_cast<std::size_t>(rows));
  out.zps.resize(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    const QuantizedTensor q = quantize(
        Tensor::from_data(Shape{static_cast<int>(cols)}, w.data() + r * cols));
    out.scales[static_cast<std::size_t>(r)] = q.params.scale;
    out.zps[static_cast<std::size_t>(r)] = q.params.zero_point;
    for (std::int64_t c = 0; c < cols; ++c) {
      out.km[static_cast<std::size_t>(c * rows + r)] = q.data[static_cast<std::size_t>(c)];
    }
  }
  return out;
}

bool is_weighted(const Layer& layer) {
  return dynamic_cast<const Conv2D*>(&layer) != nullptr ||
         dynamic_cast<const Conv1D*>(&layer) != nullptr ||
         dynamic_cast<const DepthwiseConv2D*>(&layer) != nullptr ||
         dynamic_cast<const FullyConnected*>(&layer) != nullptr;
}

}  // namespace

QuantizedModel::QuantizedModel(const Model& model, int calibration_samples) : model_(&model) {
  IOB_EXPECTS(calibration_samples >= 1, "need at least one calibration sample");
  const std::size_t n = model.layer_count();

  // ---- calibration: per-layer activation ranges over the f32 oracle ----
  std::vector<float> mins(n + 1, std::numeric_limits<float>::infinity());
  std::vector<float> maxs(n + 1, -std::numeric_limits<float>::infinity());
  const auto track = [&](std::size_t idx, const Tensor& t) {
    for (std::int64_t i = 0; i < t.size(); ++i) {
      mins[idx] = std::min(mins[idx], t[i]);
      maxs[idx] = std::max(maxs[idx], t[i]);
    }
  };
  for (int s = 0; s < calibration_samples; ++s) {
    Tensor x = patterned_tensor(model.input_shape(), s);
    track(0, x);
    for (std::size_t i = 0; i < n; ++i) {
      x = model.layer(i).forward(x);
      track(i + 1, x);
    }
  }
  input_q_ = choose_quant_params(mins[0], maxs[0]);

  // ---- find the int8 span: everything up to the last weighted layer ----
  std::ptrdiff_t last_w = -1;
  for (std::size_t i = 0; i < n; ++i) {
    if (is_weighted(model.layer(i))) last_w = static_cast<std::ptrdiff_t>(i);
  }

  const auto& profiles = model.profiles();

  QuantParams cur_q = input_q_;
  std::size_t i = 0;
  while (static_cast<std::ptrdiff_t>(i) <= last_w) {
    const Layer& layer = model.layer(i);
    Op op;
    op.src_begin = i;
    op.in_shape = model.layer_input_shape(i);
    op.out_shape = profiles[i].output_shape;
    op.in_q = cur_q;
    std::size_t consumed = 1;

    const bool weighted = is_weighted(layer);
    if (weighted) {
      // Fuse an immediately following ReLU into the requantize epilogue
      // (clamp applied on the real value, before rounding): the fused pair
      // consumes the relu's calibrated output range, which is tighter than
      // the raw accumulator's — finer int8 resolution for free.
      const Relu* relu =
          i + 1 < n ? dynamic_cast<const Relu*>(&model.layer(i + 1)) : nullptr;
      if (relu != nullptr) {
        op.relu_cap = relu->cap() > 0.0f ? relu->cap() : 0.0f;
        op.out_shape = profiles[i + 1].output_shape;
        consumed = 2;
      }
      op.out_q = choose_quant_params(mins[i + consumed], maxs[i + consumed]);
    }

    if (const auto* conv = dynamic_cast<const Conv2D*>(&layer)) {
      op.kind = Op::Kind::kGemm;
      op.is_conv = true;
      op.ih = op.in_shape[0];
      op.iw = op.in_shape[1];
      op.ic = conv->in_channels();
      op.oc = conv->out_channels();
      op.kh = conv->kernel_h();
      op.kw = conv->kernel_w();
      op.sh = conv->stride_h();
      op.sw = conv->stride_w();
      conv->geometry(op.in_shape, op.oh, op.ow, op.pad_top, op.pad_left);
      op.pointwise = op.kh == 1 && op.kw == 1 && op.sh == 1 && op.sw == 1;
      op.k_dim = static_cast<std::int64_t>(op.kh) * op.kw * op.ic;
      op.rows_per_sample = static_cast<std::int64_t>(op.oh) * op.ow;
      QWeights qw = quantize_weights_k_major(conv->weights(), op.oc, op.k_dim);
      op.qweights = std::move(qw.km);
      op.col_scales = std::move(qw.scales);
      op.wzps = std::move(qw.zps);
      op.bias = conv->bias();
    } else if (const auto* conv1 = dynamic_cast<const Conv1D*>(&layer)) {
      // An LC signal is a (1 x L x C) image — identical mapping to the
      // f32 lowering.
      op.kind = Op::Kind::kGemm;
      op.is_conv = true;
      op.ih = 1;
      op.iw = op.in_shape[0];
      op.ic = conv1->in_channels();
      op.oc = conv1->out_channels();
      op.kh = 1;
      op.kw = conv1->kernel();
      op.sh = 1;
      op.sw = conv1->stride();
      op.oh = 1;
      op.pad_top = 0;
      conv1->geometry(op.in_shape, op.ow, op.pad_left);
      op.pointwise = op.kh == 1 && op.kw == 1 && op.sh == 1 && op.sw == 1;
      op.k_dim = static_cast<std::int64_t>(op.kh) * op.kw * op.ic;
      op.rows_per_sample = static_cast<std::int64_t>(op.oh) * op.ow;
      QWeights qw = quantize_weights_k_major(conv1->weights(), op.oc, op.k_dim);
      op.qweights = std::move(qw.km);
      op.col_scales = std::move(qw.scales);
      op.wzps = std::move(qw.zps);
      op.bias = conv1->bias();
    } else if (const auto* fc = dynamic_cast<const FullyConnected*>(&layer)) {
      op.kind = Op::Kind::kGemm;
      op.oc = fc->out_features();
      op.k_dim = fc->in_features();
      op.rows_per_sample = 1;
      QWeights qw = quantize_weights_k_major(fc->weights(), op.oc, op.k_dim);
      op.qweights = std::move(qw.km);
      op.col_scales = std::move(qw.scales);
      op.wzps = std::move(qw.zps);
      op.bias = fc->bias();
    } else if (const auto* dw = dynamic_cast<const DepthwiseConv2D*>(&layer)) {
      op.kind = Op::Kind::kDwConv;
      op.ih = op.in_shape[0];
      op.iw = op.in_shape[1];
      op.ic = dw->channels();
      op.oc = dw->channels();
      op.kh = dw->kernel();
      op.kw = dw->kernel();
      op.sh = dw->stride();
      op.sw = dw->stride();
      dw->geometry(op.in_shape, op.oh, op.ow, op.pad_top, op.pad_left);
      QWeights qw = quantize_weights_k_major(dw->weights(), op.ic,
                                             static_cast<std::int64_t>(op.kh) * op.kw);
      op.qweights = std::move(qw.km);
      op.col_scales = std::move(qw.scales);
      op.wzps = std::move(qw.zps);
      op.bias = dw->bias();
    } else if (const auto* relu = dynamic_cast<const Relu*>(&layer)) {
      op.kind = Op::Kind::kRelu;
      op.elt_cap = relu->cap();
      op.out_q = choose_quant_params(mins[i + 1], maxs[i + 1]);
    } else if (dynamic_cast<const GlobalAvgPool*>(&layer) != nullptr) {
      op.kind = Op::Kind::kGlobalAvg;
      op.out_q = cur_q;
      max_acc_elems_ = std::max<std::int64_t>(max_acc_elems_, op.in_shape.back());
    } else if (dynamic_cast<const Softmax*>(&layer) != nullptr) {
      op.kind = Op::Kind::kSoftmax;
      op.out_q = choose_quant_params(mins[i + 1], maxs[i + 1]);
    } else {
      IOB_EXPECTS(false, "int8 lowering does not support this layer type: " + layer.describe());
    }

    if (op.kind == Op::Kind::kGemm) {
      const std::int64_t kp = (op.k_dim + 1) / 2;
      op.wop16.resize(static_cast<std::size_t>(kp * op.oc * 2));
      pack_b_s8(op.qweights.data(), op.k_dim, op.oc, op.wzps.data(), op.wop16.data());
      max_acc_elems_ = std::max(max_acc_elems_, op.rows_per_sample * op.oc);
      if (op.is_conv && !op.pointwise) {
        max_pack_a_elems_ = std::max(max_pack_a_elems_, op.rows_per_sample * kp);
      }
    } else if (op.kind == Op::Kind::kDwConv) {
      op.wop16.resize(static_cast<std::size_t>(dw_weight_s8_elems(op.kh, op.ic)));
      widen_dw_weights_s8(op.qweights.data(), op.kh, op.ic, op.wzps.data(), op.wop16.data());
      max_dw_pair_elems_ = std::max(max_dw_pair_elems_,
                                    dw_pair_sample_elems(op.ic, op.kh, op.sh, op.oh, op.ow));
    }
    if (op.kind == Op::Kind::kGemm || op.kind == Op::Kind::kDwConv) {
      // Fold the activation scale into the per-channel weight scales once.
      for (float& sc : op.col_scales) sc *= op.in_q.scale;
      weight_bytes_ += static_cast<std::int64_t>(op.qweights.size());
    }

    cur_q = op.out_q;
    i += consumed;
    ops_.push_back(std::move(op));
  }
  tail_start_ = i;
  if (!ops_.empty()) ops_.back().dequant_out = true;
}

void QuantizedModel::run_op(const Op& op, Workspace& ws, const std::int8_t* in8,
                            std::int8_t* out8, float* outf, int batch) const {
  const std::int64_t in_elems = shape_elems(op.in_shape);
  const float s_in = op.in_q.scale;
  const std::int32_t z_in = op.in_q.zero_point;
  const float inv_out = 1.0f / op.out_q.scale;
  const std::int32_t z_out = op.out_q.zero_point;

  switch (op.kind) {
    case Op::Kind::kGemm: {
      const std::int64_t m = static_cast<std::int64_t>(batch) * op.rows_per_sample;
      ws.reserve_acc(m * op.oc);
      QuantEpilogue epi;
      epi.bias = op.bias.data();
      epi.col_scales = op.col_scales.data();
      epi.relu_cap = op.relu_cap;
      epi.inv_out_scale = 1.0f / op.out_q.scale;
      epi.out_zero = z_out;
      if (op.dequant_out) {
        epi.dstf = outf;
      } else {
        epi.dst = out8;
      }
      if (op.is_conv && !op.pointwise) {
        // Fused im2col + panel pack: gemm_s8_pa streams these panels and
        // skips the per-tile A pack.
        const std::int64_t kp = (op.k_dim + 1) / 2;
        ws.reserve_pack_a_s8((m + kMr - 1) / kMr * kMr * kp);
        ws.reserve_bordered_s16(
            bordered_sample_elems(op.ic, op.kh, op.kw, op.sh, op.sw, op.oh, op.ow));
        im2col_pack_a_s8_nhwc(batch, op.ih, op.iw, op.ic, op.kh, op.kw, op.sh, op.sw, op.pad_top,
                              op.pad_left, op.oh, op.ow, static_cast<std::int8_t>(z_in), in8,
                              ws.bordered_s16(), ws.pack_a_s8());
        gemm_s8_pa(m, op.oc, op.k_dim, ws.pack_a_s8(), op.wop16.data(), ws.acc(), &epi);
        break;
      }
      // Pointwise convs and FC layers: the input already is the A matrix.
      gemm_s8(m, op.oc, op.k_dim, in8, z_in, op.wop16.data(), ws.acc(), &epi);
      break;
    }
    case Op::Kind::kDwConv:
      ws.reserve_dw_pairs_s16(dw_pair_sample_elems(op.ic, op.kh, op.sh, op.oh, op.ow));
      dwconv2d_s8(batch, op.ih, op.iw, op.ic, op.kh, op.sh, op.pad_top, op.pad_left, op.oh,
                  op.ow, in8, z_in, ws.dw_pairs_s16(), op.wop16.data(), op.bias.data(),
                  op.col_scales.data(), op.relu_cap, op.out_q.scale, z_out,
                  op.dequant_out ? nullptr : out8, op.dequant_out ? outf : nullptr);
      break;
    case Op::Kind::kRelu: {
      const std::int64_t total = in_elems * batch;
      for (std::int64_t j = 0; j < total; ++j) {
        float v = std::max(0.0f, s_in * static_cast<float>(in8[j] - z_in));
        if (op.elt_cap > 0.0f) v = std::min(op.elt_cap, v);
        out8[j] = requantize_value(v, inv_out, z_out);
      }
      break;
    }
    case Op::Kind::kGlobalAvg: {
      // Pixel-major: each pixel's channels add into one int32 row of the
      // accumulator arena (integer sums, so the order changes no bit).
      const int c = op.in_shape.back();
      const std::int64_t spatial = in_elems / c;
      ws.reserve_acc(c);
      std::int32_t* sums = ws.acc();
      for (int s = 0; s < batch; ++s) {
        const std::int8_t* ib = in8 + static_cast<std::int64_t>(s) * in_elems;
        std::int8_t* ob = out8 + static_cast<std::int64_t>(s) * c;
        std::fill(sums, sums + c, 0);
        for (std::int64_t sp = 0; sp < spatial; ++sp) {
          const std::int8_t* px = ib + sp * c;
          for (int ch = 0; ch < c; ++ch) sums[ch] += px[ch];
        }
        for (int ch = 0; ch < c; ++ch) {
          const float v = s_in * (static_cast<float>(sums[ch]) / static_cast<float>(spatial) -
                                  static_cast<float>(z_in));
          ob[ch] = requantize_value(v, inv_out, z_out);
        }
      }
      break;
    }
    case Op::Kind::kSoftmax: {
      // Mid-chain softmax (not the usual float tail): dequantize the sample
      // into the f32 arena, run the stable softmax, requantize.
      float* scratch = ws.ping();
      for (int s = 0; s < batch; ++s) {
        const std::int8_t* ib = in8 + static_cast<std::int64_t>(s) * in_elems;
        std::int8_t* ob = out8 + static_cast<std::int64_t>(s) * in_elems;
        float mx = -std::numeric_limits<float>::infinity();
        for (std::int64_t j = 0; j < in_elems; ++j) {
          scratch[j] = s_in * static_cast<float>(ib[j] - z_in);
          mx = std::max(mx, scratch[j]);
        }
        double sum = 0.0;
        for (std::int64_t j = 0; j < in_elems; ++j) {
          scratch[j] = std::exp(scratch[j] - mx);
          sum += scratch[j];
        }
        for (std::int64_t j = 0; j < in_elems; ++j) {
          ob[j] = requantize_value(static_cast<float>(scratch[j] / sum), inv_out, z_out);
        }
      }
      break;
    }
  }
}

ConstSpan QuantizedModel::run_into(Workspace& ws, const float* input, int batch) const {
  return run_range_into(ws, input, batch, 0, model_->layer_count());
}

std::size_t QuantizedModel::op_index_of(std::size_t k) const {
  for (std::size_t oi = 0; oi < ops_.size(); ++oi) {
    if (ops_[oi].src_begin == k) return oi;
  }
  IOB_EXPECTS(false, "no lowered int8 op starts at this source layer");
  return 0;
}

bool QuantizedModel::feasible_boundary(std::size_t k) const {
  IOB_EXPECTS(k <= model_->layer_count(), "boundary out of range");
  if (k == 0 || k >= tail_start_) return true;
  for (const Op& op : ops_) {
    if (op.src_begin == k) return true;
    if (op.src_begin > k) return false;  // src_begin is strictly increasing
  }
  return false;
}

const QuantParams& QuantizedModel::boundary_params(std::size_t k) const {
  IOB_EXPECTS(k < tail_start_, "boundary params only exist inside the int8 span");
  return ops_[op_index_of(k)].in_q;
}

ConstSpan QuantizedModel::run_range_into(Workspace& ws, const float* input, int batch,
                                         std::size_t first, std::size_t last) const {
  const std::size_t n = model_->layer_count();
  IOB_EXPECTS(first <= last && last <= n, "invalid layer range");
  IOB_EXPECTS(batch >= 1, "batch must be >= 1");
  // Empty ranges and ranges at/after the float tail are pure f32 work.
  if (ops_.empty() || first == last || first >= tail_start_) {
    return model_->run_range_into(ws, input, batch, first, last);
  }
  IOB_EXPECTS(feasible_boundary(first) && feasible_boundary(last),
              "split boundary falls inside a fused conv+relu pair");
  ws.configure(*this, batch);

  // Requantize-in: quantize the boundary activation with the op chain's
  // calibrated input params (same round-half-away rule as the load-time
  // quantizer; at first == 0 these are exactly `input_params()`). A value
  // produced by this model's own dequantize-out round-trips to the
  // identical int8 code, which is what makes chained ranges bit-exact.
  const std::size_t oi_first = op_index_of(first);
  std::int8_t* cur8 = ws.ping8();
  quantize_f32_to_s8(input, shape_elems(ops_[oi_first].in_shape) * batch,
                     ops_[oi_first].in_q.scale, ops_[oi_first].in_q.zero_point, cur8);

  // int8 chain over the ops lowered from source layers [first, last); the
  // last weighted op (if included) dequantizes into the f32 arena itself.
  const std::size_t oi_last = last >= tail_start_ ? ops_.size() : op_index_of(last);
  bool dequantized = false;
  for (std::size_t oi = oi_first; oi < oi_last; ++oi) {
    const Op& op = ops_[oi];
    if (op.dequant_out) {
      run_op(op, ws, cur8, nullptr, ws.ping(), batch);
      dequantized = true;
    } else {
      std::int8_t* next8 = cur8 == ws.ping8() ? ws.pong8() : ws.ping8();
      run_op(op, ws, cur8, next8, nullptr, batch);
      cur8 = next8;
    }
  }

  // Dequantize-out: a range stopping before the last weighted op leaves an
  // int8 activation; emit its exact f32 decoding — the well-defined boundary
  // tensor the other venue (or the wire format) consumes.
  if (!dequantized) {
    const Op& tail_op = ops_[oi_last - 1];
    const QuantParams& q = tail_op.out_q;
    const std::int64_t elems = shape_elems(tail_op.out_shape) * batch;
    float* outf = ws.ping();
    for (std::int64_t j = 0; j < elems; ++j) {
      outf[j] =
          q.scale * static_cast<float>(static_cast<std::int32_t>(cur8[j]) - q.zero_point);
    }
  }

  // Float tail layers (softmax and friends) inside the range.
  const float* curf = ws.ping();
  for (std::size_t i = tail_start_; i < last; ++i) {
    float* nextf = curf == ws.ping() ? ws.pong() : ws.ping();
    model_->layer(i).forward_into(curf, model_->layer_input_shape(i), batch, nextf, ws);
    curf = nextf;
  }
  return ConstSpan{curf, shape_elems(model_->layer_input_shape(last)) * batch};
}

Tensor QuantizedModel::forward(const Tensor& input) const {
  IOB_EXPECTS(input.shape() == model_->input_shape(), "quantized forward input shape mismatch");
  const ConstSpan out = run_into(detail::thread_workspace(), input.data(), 1);
  return Tensor::from_data(model_->layer_input_shape(model_->layer_count()), out.data);
}

}  // namespace iob::nn
