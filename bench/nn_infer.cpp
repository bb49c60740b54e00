// Inference-engine benchmark (ISSUE 4): the lowered, allocation-free nn hot
// path (im2col + blocked GEMM + workspace ping-pong, `Model::run_into`)
// against the seed nested-loop implementations (`Model::forward_reference`,
// retained verbatim as the oracle) on all three zoo models. Reports
// single-inference and batched-pass throughput plus speedups, and verifies
// the zero-steady-state-allocation contract with the same global operator
// new/delete interposer as bench/perf_sim_core.cpp. Emits
// BENCH_nn_infer.json; `nn_single_infer_per_s_vww` and
// `nn_batched_items_per_s_vww` are watched by scripts/collect_bench.py.
// `nn_dw_kws_us_per_item_f32` is the depthwise kernel alone (KWS's first
// 3x3 depthwise layer, 25x5x64, batch 32). `nn_pw_kws_us_per_item_f32` is
// KWS's first pointwise conv alone (25x5x64 -> 64, batch 32) at full
// auto-dispatch, and `nn_pw_kws_tier_speedup_f32` its cap-1 (AVX) time over
// its auto time, both timed in alternating rounds in this one process.
// `nn_front_kws_us_per_item_f32` is KWS's front conv (layer 0, 49x10x1,
// 10x4, stride 2, batch 32) including its lowering: the bordered-sample
// im2col and the GEMM. All are recorded to locate kernel gains, not
// watched.
//
// Set IOB_NN_SMOKE=1 (CI) to shrink the measurement budgets.

#include <benchmark/benchmark.h>

#include <atomic>
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
#include "nn/model_zoo.hpp"
#include "nn/tensor.hpp"
#include "nn/workspace.hpp"

namespace {

std::atomic<std::uint64_t>& g_alloc_count = iob::alloc_interposer::new_calls;

using namespace iob;

constexpr int kBatch = 8;

/// One f32 layer of a model alone, over a batch of 32 patterned inputs.
class LayerProbe {
 public:
  static constexpr int kBatch = 32;

  LayerProbe(const nn::Model& m, std::size_t layer)
      : layer_(m.layer(layer)), in_shape_(m.layer_input_shape(layer)) {
    std::vector<nn::Tensor> samples;
    for (int s = 0; s < kBatch; ++s) samples.push_back(nn::patterned_tensor(in_shape_, s));
    in_ = nn::stack_batch(samples);
    out_.resize(static_cast<std::size_t>(kBatch * nn::shape_elems(layer_.output_shape(in_shape_))));
  }

  /// Microseconds per item over a timing window of budget_s.
  double us_per_item(double budget_s) {
    const double calls_per_s = bench::rate_per_s(budget_s, [&] {
      layer_.forward_into(in_.data(), in_shape_, kBatch, out_.data(), ws_);
      benchmark::DoNotOptimize(out_.data());
    });
    return 1e6 / (calls_per_s * kBatch);
  }

 private:
  const nn::Layer& layer_;
  nn::Shape in_shape_;
  nn::Tensor in_;
  std::vector<float> out_;
  nn::Workspace ws_;
};

/// The f32 depthwise kernel alone: KWS's first depthwise layer (25x5x64,
/// 3x3, stride 1) over a batch of 32, in microseconds per item.
double dw_kws_us_per_item(const nn::Model& kws, double budget_s) {
  constexpr std::size_t kDwLayer = 2;
  IOB_ENSURES(dynamic_cast<const nn::DepthwiseConv2D*>(&kws.layer(kDwLayer)) != nullptr,
              "kws layer 2 is no longer its first depthwise conv");
  return LayerProbe(kws, kDwLayer).us_per_item(budget_s);
}

/// KWS's first pointwise conv (25x5x64 -> 64, batch 32) at dispatch cap 1
/// (the AVX f32 tile) and at full auto.
bench::TierTiming pw_kws_tiers(const nn::Model& kws, double budget_s) {
  constexpr std::size_t kPwLayer = 4;
  const auto* pw = dynamic_cast<const nn::Conv2D*>(&kws.layer(kPwLayer));
  IOB_ENSURES(pw != nullptr && pw->kernel_h() == 1 && pw->kernel_w() == 1,
              "kws layer 4 is no longer its first pointwise conv");
  LayerProbe probe(kws, kPwLayer);
  return bench::time_tiers(1, budget_s, [&](double b) { return probe.us_per_item(b); });
}

struct ModelEntry {
  const char* key;
  nn::Model model;
};

void print_headline() {
  const bool smoke = std::getenv("IOB_NN_SMOKE") != nullptr;
  // The smoke budget still feeds the strict CI regression gate (the vww
  // series are watched), so it stays large enough to tame shared-runner
  // noise at the 10% threshold.
  const double budget_s = smoke ? 0.5 : 1.0;

  common::print_banner(
      std::string("NN inference engine — lowered GEMM pipeline vs seed loops") +
      (smoke ? " [smoke]" : ""));

  ModelEntry entries[] = {{"kws", nn::make_kws_dscnn()},
                          {"ecg", nn::make_ecg_cnn1d()},
                          {"vww", nn::make_vww_micronet()}};

  bench::JsonReporter json("nn_infer");
  common::Table t({"model", "single (inf/s)", "seed (inf/s)", "speedup", "batched (inf/s)",
                   "seed batched", "speedup", "allocs/inf"});

  for (ModelEntry& e : entries) {
    const nn::Model& m = e.model;
    const nn::Tensor x = nn::patterned_tensor(m.input_shape(), 1);
    std::vector<nn::Tensor> samples;
    for (int s = 0; s < kBatch; ++s) samples.push_back(nn::patterned_tensor(m.input_shape(), s));
    const nn::Tensor stacked = nn::stack_batch(samples);

    nn::Workspace ws;
    ws.configure(m, kBatch);

    // Bit-exactness gate before timing anything: lowered vs seed loops.
    {
      const nn::Tensor ref = m.forward_reference(x);
      const nn::Tensor bref = m.run_batched_reference(stacked);
      IOB_ENSURES(m.forward(x).max_abs_diff(ref) == 0.0, "lowered forward diverged from seed");
      IOB_ENSURES(m.run_batched(stacked).max_abs_diff(bref) == 0.0,
                  "lowered batched pass diverged from seed");
    }

    const double single = bench::rate_per_s(budget_s, [&] {
      benchmark::DoNotOptimize(m.run_into(ws, x.data(), 1).data);
    });
    const double single_seed = bench::rate_per_s(budget_s, [&] {
      benchmark::DoNotOptimize(m.forward_reference(x).data());
    });
    const double batched = kBatch * bench::rate_per_s(budget_s, [&] {
      benchmark::DoNotOptimize(m.run_into(ws, stacked.data(), kBatch).data);
    });
    const double batched_seed = kBatch * bench::rate_per_s(budget_s, [&] {
      benchmark::DoNotOptimize(m.run_batched_reference(stacked).data());
    });

    // Zero-allocation contract: after warm-up, the steady-state inference
    // loop must never touch the heap. Hard failure, not a report.
    m.run_into(ws, x.data(), 1);
    m.run_into(ws, stacked.data(), kBatch);
    const std::uint64_t allocs_before = g_alloc_count;
    constexpr int kAllocReps = 50;
    for (int r = 0; r < kAllocReps; ++r) {
      benchmark::DoNotOptimize(m.run_into(ws, x.data(), 1).data);
      benchmark::DoNotOptimize(m.run_into(ws, stacked.data(), kBatch).data);
    }
    const double allocs_per_inf =
        static_cast<double>(g_alloc_count - allocs_before) / (2.0 * kAllocReps);
    IOB_ENSURES(allocs_per_inf == 0.0, "steady-state inference loop allocated");

    t.add_row({e.key, common::si_format(single, ""), common::si_format(single_seed, ""),
               common::fixed(single / single_seed, 1) + "x", common::si_format(batched, ""),
               common::si_format(batched_seed, ""), common::fixed(batched / batched_seed, 1) + "x",
               common::fixed(allocs_per_inf, 3)});

    const std::string key = e.key;
    json.add("nn_single_infer_per_s_" + key, single);
    json.add("nn_single_infer_per_s_seed_" + key, single_seed);
    json.add("nn_single_speedup_" + key, single / single_seed);
    json.add("nn_batched_items_per_s_" + key, batched);
    json.add("nn_batched_items_per_s_seed_" + key, batched_seed);
    json.add("nn_batched_speedup_" + key, batched / batched_seed);
    json.add("nn_steady_allocs_per_inference_" + key, allocs_per_inf);
  }

  const double dw_us = dw_kws_us_per_item(entries[0].model, budget_s);
  json.add("nn_dw_kws_us_per_item_f32", dw_us);
  const bench::TierTiming pw = pw_kws_tiers(entries[0].model, budget_s);
  json.add("nn_pw_kws_us_per_item_f32", pw.us_per_item_auto);
  json.add("nn_pw_kws_tier_speedup_f32", pw.speedup);
  const double front_us = LayerProbe(entries[0].model, 0).us_per_item(budget_s);
  json.add("nn_front_kws_us_per_item_f32", front_us);

  std::printf("%s", t.to_string().c_str());
  common::print_note("kws depthwise kernel alone (25x5x64, 3x3, batch 32): " +
                     common::fixed(dw_us, 2) + " us/item");
  common::print_note("kws first pointwise conv alone (25x5x64 -> 64, batch 32): " +
                     common::fixed(pw.us_per_item_auto, 2) + " us/item at auto dispatch, " +
                     common::fixed(pw.speedup, 2) + "x over dispatch cap 1 (AVX)");
  common::print_note("kws front conv with its lowering (49x10x1, 10x4, stride 2, batch 32): " +
                     common::fixed(front_us, 2) + " us/item");
  common::print_note("single = Model::run_into at batch 1; batched = batch " +
                     std::to_string(kBatch) + ", per-sample rate");
  common::print_note("seed = retained naive nested loops (forward_reference); bit-exactness");
  common::print_note("asserted before timing; allocs/inf interposer-counted after warm-up");
  json.write();
}

// ---- microbenchmarks --------------------------------------------------------

const nn::Model& model_by_index(int idx) {
  static const nn::Model models[] = {nn::make_kws_dscnn(), nn::make_ecg_cnn1d(),
                                     nn::make_vww_micronet()};
  return models[idx];
}

void BM_SingleInference(benchmark::State& state) {
  const nn::Model& m = model_by_index(static_cast<int>(state.range(0)));
  const nn::Tensor x = nn::patterned_tensor(m.input_shape(), 1);
  nn::Workspace ws;
  ws.configure(m, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.run_into(ws, x.data(), 1).data);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SingleInference)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

void BM_SingleInference_Seed(benchmark::State& state) {
  const nn::Model& m = model_by_index(static_cast<int>(state.range(0)));
  const nn::Tensor x = nn::patterned_tensor(m.input_shape(), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.forward_reference(x).data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SingleInference_Seed)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

void BM_BatchedInference(benchmark::State& state) {
  const nn::Model& m = model_by_index(2);  // vww
  const auto batch = static_cast<int>(state.range(0));
  std::vector<nn::Tensor> samples;
  for (int s = 0; s < batch; ++s) samples.push_back(nn::patterned_tensor(m.input_shape(), s));
  const nn::Tensor stacked = nn::stack_batch(samples);
  nn::Workspace ws;
  ws.configure(m, batch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.run_into(ws, stacked.data(), batch).data);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_BatchedInference)->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_headline();
  return iob::bench::run_microbenchmarks(argc, argv);
}
