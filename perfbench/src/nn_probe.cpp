#include "nn_probe.hpp"

#include <chrono>
#include <cstring>
#include <functional>
#include <string>

#include "nn/model_zoo.hpp"
#include "nn/tensor.hpp"
#include "nn/workspace.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using iob::nn::ConstSpan;
using iob::nn::Workspace;

/// One (model, precision) engine behind a uniform range call.
struct Engine {
  std::string model;
  std::string precision;
  std::vector<std::size_t> bounds;
  std::int64_t input_elems = 0;
  std::uint64_t macs = 0;
  std::function<ConstSpan(Workspace&, const float*, int, std::size_t, std::size_t)> run;
};

std::vector<Engine> engines(const Zoo& zoo) {
  std::vector<Engine> out;
  const auto add = [&out](const std::string& name, const iob::nn::Model& m,
                          const iob::nn::QuantizedModel& q) {
    Engine f32{name, "f32", op_boundaries(q), iob::nn::shape_elems(m.input_shape()),
               m.total_macs(),
               [&m](Workspace& ws, const float* in, int b, std::size_t first, std::size_t last) {
                 return m.run_range_into(ws, in, b, first, last);
               }};
    Engine s8 = f32;
    s8.precision = "int8";
    s8.run = [&q](Workspace& ws, const float* in, int b, std::size_t first, std::size_t last) {
      return q.run_range_into(ws, in, b, first, last);
    };
    out.push_back(std::move(f32));
    out.push_back(std::move(s8));
  };
  add("kws", zoo.kws, zoo.qkws);
  add("ecg", zoo.ecg, zoo.qecg);
  return out;
}

std::vector<float> input_batch(const Engine& e, std::uint64_t seed, int batch) {
  InputRng rng(seed ^ 0x6E6E2D70726F6265ULL);
  std::vector<float> v(static_cast<std::size_t>(e.input_elems * batch));
  for (float& x : v) x = static_cast<float>(rng.unit() * 2.0 - 1.0);
  return v;
}

/// Runs op after op, each fed the previous op's output copied out of the
/// workspace. Returns every op's input followed by the final output.
std::vector<std::vector<float>> chained_replay(const Engine& e, Workspace& ws,
                                               const std::vector<float>& input, int batch) {
  std::vector<std::vector<float>> stages{input};
  for (std::size_t j = 0; j + 1 < e.bounds.size(); ++j) {
    const ConstSpan y = e.run(ws, stages.back().data(), batch, e.bounds[j], e.bounds[j + 1]);
    stages.emplace_back(y.begin(), y.end());
  }
  return stages;
}

bool replay_matches_whole(const Engine& e, Workspace& ws, const std::vector<float>& input,
                          int batch, const std::vector<float>& chained_out) {
  const ConstSpan whole = e.run(ws, input.data(), batch, 0, e.bounds.back());
  return static_cast<std::size_t>(whole.size) == chained_out.size() &&
         std::memcmp(whole.data, chained_out.data(), chained_out.size() * sizeof(float)) == 0;
}

/// Median seconds per call over 5 rounds, each sized to a fifth of the
/// budget after one warm-up call.
double seconds_per_call(const std::function<void()>& fn, double budget_s) {
  fn();
  auto t0 = std::chrono::steady_clock::now();
  fn();
  const double once = std::max(1e-7, seconds_since(t0));
  const int reps = std::max(1, static_cast<int>(budget_s / 5.0 / once));
  std::vector<double> rounds;
  for (int r = 0; r < 5; ++r) {
    t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) fn();
    rounds.push_back(seconds_since(t0) / reps);
  }
  return median(rounds);
}

constexpr double kBudgetPerTimingS = 0.03;

}  // namespace

Zoo::Zoo()
    : kws(iob::nn::make_kws_dscnn()), ecg(iob::nn::make_ecg_cnn1d()), qkws(kws), qecg(ecg) {}

std::vector<std::size_t> op_boundaries(const iob::nn::QuantizedModel& q) {
  const std::size_t n = q.source().layer_count();
  std::vector<std::size_t> bounds;
  for (std::size_t k = 0; k < n; ++k) {
    if (q.feasible_boundary(k)) bounds.push_back(k);
  }
  bounds.push_back(n);
  return bounds;
}

std::vector<NamedValue> nn_layer_metrics(const Zoo& zoo, std::uint64_t seed, bool measure,
                                         Tracer* tracer, Outcome& out) {
  std::vector<NamedValue> metrics;
  Workspace ws;
  for (const Engine& e : engines(zoo)) {
    const std::string prefix = "nn." + e.model + "." + e.precision + ".";
    double us_b32 = 0.0, us_b19 = 0.0;
    std::vector<double> op_us(e.bounds.size() - 1, 0.0);
    if (measure) {
      Span engine_span(tracer, prefix + "table");
      const std::vector<float> in32 = input_batch(e, seed, 32);
      const std::vector<float> in19 = input_batch(e, seed, 19);
      const auto whole = [&](const std::vector<float>& in, int batch) {
        Span s(tracer, prefix + "b" + std::to_string(batch));
        return seconds_per_call([&] { e.run(ws, in.data(), batch, 0, e.bounds.back()); },
                                kBudgetPerTimingS) *
               1e6 / batch;
      };
      us_b32 = whole(in32, 32);
      us_b19 = whole(in19, 19);
      const std::vector<std::vector<float>> stages = chained_replay(e, ws, in32, 32);
      out.check(replay_matches_whole(e, ws, in32, 32, stages.back()),
                prefix + "chained per-op replay == whole-range call (batch 32)");
      for (std::size_t j = 0; j + 1 < e.bounds.size(); ++j) {
        Span s(tracer, prefix + "op" + std::to_string(e.bounds[j]));
        op_us[j] = seconds_per_call(
                       [&] { e.run(ws, stages[j].data(), 32, e.bounds[j], e.bounds[j + 1]); },
                       kBudgetPerTimingS) *
                   1e6 / 32.0;
      }
    }
    metrics.push_back({prefix + "us_per_item.b32", us_b32, "us"});
    metrics.push_back({prefix + "us_per_item.b19", us_b19, "us"});
    metrics.push_back(
        {prefix + "gmac_per_s", us_b32 > 0.0 ? static_cast<double>(e.macs) / us_b32 * 1e-3 : 0.0,
         "GMAC/s"});
    for (std::size_t j = 0; j + 1 < e.bounds.size(); ++j) {
      metrics.push_back({prefix + "op" + std::to_string(e.bounds[j]) + ".us_per_item", op_us[j],
                         "us"});
    }
  }
  return metrics;
}

void check_nn_chains(const Zoo& zoo, std::uint64_t seed, int batch, Outcome& out) {
  Workspace ws;
  for (const Engine& e : engines(zoo)) {
    const std::vector<float> in = input_batch(e, seed, batch);
    const std::vector<std::vector<float>> stages = chained_replay(e, ws, in, batch);
    out.check(replay_matches_whole(e, ws, in, batch, stages.back()),
              "nn." + e.model + "." + e.precision + " chained per-op replay == whole-range call");
  }
}

}  // namespace perfbench
