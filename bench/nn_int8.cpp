// Int8 quantized execution path benchmark (ISSUE 5): the quantized engine
// (`nn::QuantizedModel` — int8 im2col + pmaddwd GEMM with a fused
// requantize epilogue, runtime-dispatched SSE2/AVX2/AVX-512) against the
// f32 engine from PR 4 on all three zoo models, single-inference and
// batch-8. Reports throughput, the int8-vs-f32 speedups, accuracy deltas
// vs the f32 oracle (max logit error, top-1 agreement overall and on
// decision-margin-decisive inputs), and int8 weight footprints; verifies
// the zero-steady-state-allocation contract with the interposer. Emits
// BENCH_nn_int8.json; `nn_int8_batched_items_per_s_vww` is watched by
// scripts/collect_bench.py under the strict regression gate.
// `nn_dw_kws_us_per_item_int8` is the int8 depthwise kernel alone at KWS's
// depthwise shape (25x5x64, 3x3, batch 32) at full auto-dispatch, and
// `nn_dw_kws_tier_speedup_int8` its cap-2 (AVX-512BW) time over its auto
// time. `nn_pw_kws_us_per_item_int8`
// is the int8 GEMM of KWS's first pointwise conv (layer 4, 25x5x64 -> 64,
// batch 32, requantizing epilogue) at full auto-dispatch, and
// `nn_pw_kws_tier_speedup_int8` its cap-2 (AVX-512BW) time over its auto
// time, both timed in alternating rounds in this one process.
// `nn_front_kws_us_per_item_int8` is KWS's front conv (layer 0, 49x10x1,
// 10x4, stride 2) including its lowering: the bordered-sample panel pack
// and the GEMM. All are recorded to locate kernel gains, not watched.
//
// Set IOB_NN_SMOKE=1 (CI) to shrink the measurement budgets.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/alloc_interposer.hpp"  // defines global operator new/delete
#include "common/expect.hpp"
#include "common/table.hpp"
#include "nn/conv.hpp"
#include "nn/gemm.hpp"
#include "nn/model_zoo.hpp"
#include "nn/qmodel.hpp"
#include "nn/tensor.hpp"
#include "nn/workspace.hpp"

namespace {

std::atomic<std::uint64_t>& g_alloc_count = iob::alloc_interposer::new_calls;

using namespace iob;

constexpr int kBatch = 8;

/// The int8 depthwise kernel alone at KWS's depthwise shape (25x5x64, 3x3,
/// stride 1, same padding) over a batch of 32, requantizing to int8, in
/// microseconds per item, at dispatch cap 2 (AVX-512BW) and at full auto.
/// The operands are synthetic: the kernel's cost does not depend on their
/// values.
bench::TierTiming dw_kws_tiers(double budget_s) {
  constexpr int kDwBatch = 32, kH = 25, kW = 5, kC = 64, kK = 3;
  std::vector<std::int8_t> in(static_cast<std::size_t>(kDwBatch) * kH * kW * kC);
  std::vector<std::int8_t> w(static_cast<std::size_t>(kK) * kK * kC);
  std::vector<std::int32_t> zw(kC, 0);
  std::vector<float> bias(kC), scales(kC);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<std::int8_t>(static_cast<int>(i * 37 % 251) - 125);
  }
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<std::int8_t>(static_cast<int>(i * 53 % 241) - 120);
  }
  for (int c = 0; c < kC; ++c) {
    bias[static_cast<std::size_t>(c)] = 0.01f * static_cast<float>(c) - 0.3f;
    scales[static_cast<std::size_t>(c)] = 0.0005f + 0.00001f * static_cast<float>(c);
  }
  std::vector<std::int16_t> w16(static_cast<std::size_t>(nn::dw_weight_s8_elems(kK, kC)));
  nn::widen_dw_weights_s8(w.data(), kK, kC, zw.data(), w16.data());
  // The tap-pair arena as the engine holds it: cache-line aligned.
  nn::Workspace ws;
  ws.reserve_dw_pairs_s16(nn::dw_pair_sample_elems(kC, kK, 1, kH, kW));
  std::vector<std::int8_t> out(in.size());
  return bench::time_tiers(2, budget_s, [&](double b) {
    const double calls_per_s = bench::rate_per_s(b, [&] {
      nn::dwconv2d_s8(kDwBatch, kH, kW, kC, kK, 1, 1, 1, kH, kW, in.data(), -3, ws.dw_pairs_s16(),
                      w16.data(), bias.data(), scales.data(), 0.0f, 0.05f, -2, out.data(),
                      nullptr);
      benchmark::DoNotOptimize(out.data());
    });
    return 1e6 / (calls_per_s * kDwBatch);
  });
}

/// Synthetic int8 operands of one conv layer of a model at batch 32: the
/// input activations, the `pack_b_s8` weights and a requantizing epilogue.
/// The kernels' cost does not depend on the values.
struct ConvOperands {
  static constexpr int kBatch = 32;

  ConvOperands(const nn::Model& m, std::size_t layer, std::int64_t rows_per_sample,
               std::int64_t k_dim, int oc)
      : M(kBatch * rows_per_sample), N(oc), K(k_dim),
        in(static_cast<std::size_t>(kBatch * nn::shape_elems(m.layer_input_shape(layer)))),
        bop(static_cast<std::size_t>((k_dim + 1) / 2 * oc * 2)),
        acc(static_cast<std::size_t>(M * oc)),
        out(acc.size()),
        bias(static_cast<std::size_t>(oc), -0.3f),
        scales(static_cast<std::size_t>(oc), 0.0005f) {
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = static_cast<std::int8_t>(static_cast<int>(i * 37 % 251) - 125);
    }
    std::vector<std::int8_t> w(static_cast<std::size_t>(k_dim * oc));
    for (std::size_t i = 0; i < w.size(); ++i) {
      w[i] = static_cast<std::int8_t>(static_cast<int>(i * 53 % 241) - 120);
    }
    const std::vector<std::int32_t> zw(static_cast<std::size_t>(oc), 1);
    nn::pack_b_s8(w.data(), k_dim, oc, zw.data(), bop.data());
    epi.bias = bias.data();
    epi.col_scales = scales.data();
    epi.relu_cap = 0.0f;
    epi.inv_out_scale = 20.0f;
    epi.out_zero = -3;
    epi.dst = out.data();
  }

  std::int64_t M, N, K;
  std::vector<std::int8_t> in;
  std::vector<std::int16_t> bop;
  std::vector<std::int32_t> acc;
  std::vector<std::int8_t> out;
  std::vector<float> bias, scales;
  nn::QuantEpilogue epi;
};

/// The int8 GEMM of KWS's first pointwise conv (25x5x64 -> 64, batch 32)
/// at dispatch cap 2 (AVX-512BW) and at full auto.
bench::TierTiming pw_kws_tiers(const nn::Model& kws, double budget_s) {
  constexpr std::size_t kPwLayer = 4;
  const auto* pw = dynamic_cast<const nn::Conv2D*>(&kws.layer(kPwLayer));
  IOB_ENSURES(pw != nullptr && pw->kernel_h() == 1 && pw->kernel_w() == 1,
              "kws layer 4 is no longer its first pointwise conv");
  const nn::Shape& in = kws.layer_input_shape(kPwLayer);
  ConvOperands op(kws, kPwLayer, static_cast<std::int64_t>(in[0]) * in[1], pw->in_channels(),
                  pw->out_channels());
  return bench::time_tiers(2, budget_s, [&](double b) {
    const double calls_per_s = bench::rate_per_s(b, [&] {
      nn::gemm_s8(op.M, op.N, op.K, op.in.data(), 2, op.bop.data(), op.acc.data(), &op.epi);
      benchmark::DoNotOptimize(op.out.data());
    });
    return 1e6 / (calls_per_s * ConvOperands::kBatch);
  });
}

/// KWS's front conv (49x10x1, 10x4, stride 2, same padding, batch 32) with
/// its lowering: the bordered-sample panel pack, then the GEMM with a
/// requantizing epilogue, in microseconds per item.
double front_kws_us_per_item(const nn::Model& kws, double budget_s) {
  const auto* conv = dynamic_cast<const nn::Conv2D*>(&kws.layer(0));
  IOB_ENSURES(conv != nullptr && conv->kernel_h() > 1, "kws layer 0 is no longer its front conv");
  const nn::Shape& in = kws.layer_input_shape(0);
  int oh, ow, pad_top, pad_left;
  conv->geometry(in, oh, ow, pad_top, pad_left);
  const int kh = conv->kernel_h(), kw = conv->kernel_w();
  const int sh = conv->stride_h(), sw = conv->stride_w(), ic = conv->in_channels();
  ConvOperands op(kws, 0, static_cast<std::int64_t>(oh) * ow,
                  static_cast<std::int64_t>(kh) * kw * ic, conv->out_channels());
  nn::Workspace ws;
  ws.reserve_pack_a_s8((op.M + nn::kMr - 1) / nn::kMr * nn::kMr * ((op.K + 1) / 2));
  ws.reserve_bordered_s16(nn::bordered_sample_elems(ic, kh, kw, sh, sw, oh, ow));
  const double calls_per_s = bench::rate_per_s(budget_s, [&] {
    nn::im2col_pack_a_s8_nhwc(ConvOperands::kBatch, in[0], in[1], ic, kh, kw, sh, sw, pad_top,
                              pad_left, oh, ow, 2, op.in.data(), ws.bordered_s16(),
                              ws.pack_a_s8());
    nn::gemm_s8_pa(op.M, op.N, op.K, ws.pack_a_s8(), op.bop.data(), op.acc.data(),
                   &op.epi);
    benchmark::DoNotOptimize(op.out.data());
  });
  return 1e6 / (calls_per_s * ConvOperands::kBatch);
}

constexpr int kAccuracyInputs = 32;

struct ModelEntry {
  const char* key;
  nn::Model model;
};

void print_headline() {
  const bool smoke = std::getenv("IOB_NN_SMOKE") != nullptr;
  // The smoke budget still feeds the strict CI regression gate (the vww
  // int8 series is watched), so it stays large enough to tame
  // shared-runner noise at the 10% threshold.
  const double budget_s = smoke ? 0.5 : 1.0;

  common::print_banner(
      std::string("NN int8 engine — quantized execution path vs the f32 engine") +
      (smoke ? " [smoke]" : ""));

  ModelEntry entries[] = {{"kws", nn::make_kws_dscnn()},
                          {"ecg", nn::make_ecg_cnn1d()},
                          {"vww", nn::make_vww_micronet()}};

  bench::JsonReporter json("nn_int8");
  common::Table t({"model", "int8 single (inf/s)", "f32 single", "speedup",
                   "int8 batched (inf/s)", "f32 batched", "speedup", "top-1 agree",
                   "max |dlogit|", "weights"});

  for (ModelEntry& e : entries) {
    const nn::Model& m = e.model;
    const nn::QuantizedModel qm(m);
    const nn::Tensor x = nn::patterned_tensor(m.input_shape(), 1);
    std::vector<nn::Tensor> samples;
    for (int s = 0; s < kBatch; ++s) samples.push_back(nn::patterned_tensor(m.input_shape(), s));
    const nn::Tensor stacked = nn::stack_batch(samples);

    nn::Workspace wf, wq;
    wf.configure(m, kBatch);
    wq.configure(qm, kBatch);

    // Accuracy gate before timing anything: bounded logit error everywhere,
    // and top-1 agreement wherever the f32 decision margin exceeds TWICE
    // the measured per-logit error — at that margin a flip is
    // mathematically impossible, so the gate follows from the error bound
    // rather than adding an independent flakiness surface (coin-flip
    // inputs on random-weight models are not decidable at int8 resolution).
    int agree = 0, decisive = 0, decisive_agree = 0;
    double max_err = 0.0;
    std::vector<nn::Tensor> f32_out, int8_out;
    for (int s = 0; s < kAccuracyInputs; ++s) {
      const nn::Tensor in = nn::patterned_tensor(m.input_shape(), 100 + s);
      f32_out.push_back(m.forward(in));
      int8_out.push_back(qm.forward(in));
      max_err = std::max(max_err, f32_out.back().max_abs_diff(int8_out.back()));
    }
    for (int s = 0; s < kAccuracyInputs; ++s) {
      const nn::Tensor& f = f32_out[static_cast<std::size_t>(s)];
      const nn::Tensor& q = int8_out[static_cast<std::size_t>(s)];
      const int af = bench::argmax(f.data(), f.size());
      const bool same = bench::argmax(q.data(), q.size()) == af;
      if (same) ++agree;
      double runner_up = -1e30;
      for (std::int64_t i = 0; i < f.size(); ++i) {
        if (static_cast<int>(i) != af) runner_up = std::max(runner_up, double{f[i]});
      }
      if (f[af] - runner_up > 2.0 * max_err) {
        ++decisive;
        if (same) ++decisive_agree;
      }
    }
    IOB_ENSURES(max_err < 0.05, "int8 logit error exceeded the accuracy bound");
    IOB_ENSURES(decisive_agree == decisive,
                "int8 top-1 disagreed with f32 on a decisive input");

    const double q1 = bench::rate_per_s(budget_s, [&] {
      benchmark::DoNotOptimize(qm.run_into(wq, x.data(), 1).data);
    });
    const double f1 = bench::rate_per_s(budget_s, [&] {
      benchmark::DoNotOptimize(m.run_into(wf, x.data(), 1).data);
    });
    const double q8 = kBatch * bench::rate_per_s(budget_s, [&] {
      benchmark::DoNotOptimize(qm.run_into(wq, stacked.data(), kBatch).data);
    });
    const double f8 = kBatch * bench::rate_per_s(budget_s, [&] {
      benchmark::DoNotOptimize(m.run_into(wf, stacked.data(), kBatch).data);
    });

    // Zero-allocation contract: after warm-up, the steady-state int8 loop
    // must never touch the heap. Hard failure, not a report.
    qm.run_into(wq, x.data(), 1);
    qm.run_into(wq, stacked.data(), kBatch);
    const std::uint64_t allocs_before = g_alloc_count;
    constexpr int kAllocReps = 50;
    for (int r = 0; r < kAllocReps; ++r) {
      benchmark::DoNotOptimize(qm.run_into(wq, x.data(), 1).data);
      benchmark::DoNotOptimize(qm.run_into(wq, stacked.data(), kBatch).data);
    }
    const double allocs_per_inf =
        static_cast<double>(g_alloc_count - allocs_before) / (2.0 * kAllocReps);
    IOB_ENSURES(allocs_per_inf == 0.0, "steady-state int8 inference loop allocated");

    const double agree_frac = static_cast<double>(agree) / kAccuracyInputs;
    t.add_row({e.key, common::si_format(q1, ""), common::si_format(f1, ""),
               common::fixed(q1 / f1, 2) + "x", common::si_format(q8, ""),
               common::si_format(f8, ""), common::fixed(q8 / f8, 2) + "x",
               std::to_string(agree) + "/" + std::to_string(kAccuracyInputs),
               common::fixed(max_err, 4), common::si_format(double(qm.weight_bytes()), "B")});

    const std::string key = e.key;
    json.add("nn_int8_single_infer_per_s_" + key, q1);
    json.add("nn_int8_batched_items_per_s_" + key, q8);
    json.add("nn_f32_single_infer_per_s_" + key, f1);
    json.add("nn_f32_batched_items_per_s_" + key, f8);
    json.add("nn_int8_single_speedup_vs_f32_" + key, q1 / f1);
    json.add("nn_int8_batched_speedup_vs_f32_" + key, q8 / f8);
    json.add("nn_int8_top1_agreement_" + key, agree_frac);
    json.add("nn_int8_decisive_top1_agreement_" + key,
             decisive > 0 ? static_cast<double>(decisive_agree) / decisive : 1.0);
    json.add("nn_int8_max_logit_err_" + key, max_err);
    json.add("nn_int8_weight_bytes_" + key, static_cast<double>(qm.weight_bytes()));
    json.add("nn_int8_steady_allocs_per_inference_" + key, allocs_per_inf);
  }

  const bench::TierTiming dw = dw_kws_tiers(budget_s);
  json.add("nn_dw_kws_us_per_item_int8", dw.us_per_item_auto);
  json.add("nn_dw_kws_tier_speedup_int8", dw.speedup);
  const bench::TierTiming pw = pw_kws_tiers(entries[0].model, budget_s);
  json.add("nn_pw_kws_us_per_item_int8", pw.us_per_item_auto);
  json.add("nn_pw_kws_tier_speedup_int8", pw.speedup);
  const double front_us = front_kws_us_per_item(entries[0].model, budget_s);
  json.add("nn_front_kws_us_per_item_int8", front_us);

  std::printf("%s", t.to_string().c_str());
  common::print_note("kws-shape int8 depthwise kernel alone (25x5x64, 3x3, batch 32): " +
                     common::fixed(dw.us_per_item_auto, 2) + " us/item at auto dispatch, " +
                     common::fixed(dw.speedup, 2) + "x over dispatch cap 2 (AVX-512BW)");
  common::print_note("kws first pointwise conv's int8 gemm (25x5x64 -> 64, batch 32): " +
                     common::fixed(pw.us_per_item_auto, 2) + " us/item at auto dispatch, " +
                     common::fixed(pw.speedup, 2) + "x over dispatch cap 2 (AVX-512BW)");
  common::print_note("kws front conv with its lowering (49x10x1, 10x4, stride 2, batch 32): " +
                     common::fixed(front_us, 2) + " us/item");
  common::print_note("single = run_into at batch 1; batched = batch " + std::to_string(kBatch) +
                     ", per-sample rate; f32 = the PR 4 lowered engine");
  common::print_note("accuracy gated before timing: bounded logit error on all " +
                     std::to_string(kAccuracyInputs) + " inputs, top-1 agreement on every");
  common::print_note("decision-margin-decisive input; allocs interposer-counted after warm-up");
  json.write();
}

// ---- microbenchmarks --------------------------------------------------------

struct QuantZoo {
  nn::Model models[3] = {nn::make_kws_dscnn(), nn::make_ecg_cnn1d(), nn::make_vww_micronet()};
  nn::QuantizedModel qms[3] = {nn::QuantizedModel(models[0]), nn::QuantizedModel(models[1]),
                               nn::QuantizedModel(models[2])};
};

QuantZoo& quant_zoo() {
  static QuantZoo zoo;
  return zoo;
}

void BM_Int8SingleInference(benchmark::State& state) {
  QuantZoo& zoo = quant_zoo();
  const int idx = static_cast<int>(state.range(0));
  const nn::QuantizedModel& qm = zoo.qms[idx];
  const nn::Tensor x = nn::patterned_tensor(qm.input_shape(), 1);
  nn::Workspace ws;
  ws.configure(qm, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qm.run_into(ws, x.data(), 1).data);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Int8SingleInference)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

void BM_Int8BatchedInference(benchmark::State& state) {
  QuantZoo& zoo = quant_zoo();
  const nn::QuantizedModel& qm = zoo.qms[2];  // vww
  const auto batch = static_cast<int>(state.range(0));
  std::vector<nn::Tensor> samples;
  for (int s = 0; s < batch; ++s) samples.push_back(nn::patterned_tensor(qm.input_shape(), s));
  const nn::Tensor stacked = nn::stack_batch(samples);
  nn::Workspace ws;
  ws.configure(qm, batch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qm.run_into(ws, stacked.data(), batch).data);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_Int8BatchedInference)->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_QuantizeAtLoad(benchmark::State& state) {
  QuantZoo& zoo = quant_zoo();
  const nn::Model& m = zoo.models[static_cast<int>(state.range(0))];
  for (auto _ : state) {
    nn::QuantizedModel qm(m);
    benchmark::DoNotOptimize(qm.weight_bytes());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuantizeAtLoad)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_headline();
  return iob::bench::run_microbenchmarks(argc, argv);
}
