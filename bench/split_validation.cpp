// Split-execution validation bench (ISSUE 7): execute every feasible
// leaf/hub split of all three zoo models on a host-calibrated pair of
// venues and compare the *measured* per-venue compute energy against the
// analytic `partition::CostModel` point-for-point. For each split k the
// prefix [0, k) is timed as the "leaf" and the suffix [k, n) as the "hub"
// (both venues calibrated from the same host engine, so the comparison
// isolates how well MAC-count proportionality predicts real kernel time),
// the chained output is asserted bit-identical to the unsplit pass, and
// the boundary activation is actually serialized and its byte count held
// equal to `Partitioner::boundary_bytes` — the wire the fleet's split
// sessions bill for. A final section runs the adaptive re-partition
// controller inside a `net::NetworkSim` on a glide-path-starved battery
// and reports the split trajectory. Emits BENCH_split_validation.json;
// `split_costmodel_max_rel_err` is watched (lower is better) by
// scripts/collect_bench.py.
//
// Timing is thread CPU time on one pinned thread: vCPUs of one host can
// differ in single-thread speed by tens of percent, and wall time also
// counts time the thread sits descheduled. Each split is timed over
// kRepetitions repetitions of an unsplit, a prefix and a suffix pass; the
// cost model's MAC rate comes from one calibration pass before the scan,
// and each repetition rescales the prediction by its own unsplit pass, so
// host drift between the calibration and the repetition cancels. The
// error reported is the median over the repetitions, printed next to its
// spread (max - min).
//
// Set IOB_SPLIT_SMOKE=1 (CI) to shrink the timing windows.

#include <benchmark/benchmark.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "comm/wir_link.hpp"
#include "common/expect.hpp"
#include "common/table.hpp"
#include "core/fleet.hpp"
#include "net/network_sim.hpp"
#include "nn/model_zoo.hpp"
#include "nn/qmodel.hpp"
#include "nn/quantize.hpp"
#include "nn/tensor.hpp"
#include "nn/workspace.hpp"
#include "partition/adaptive_split.hpp"
#include "partition/cost_model.hpp"
#include "partition/partitioner.hpp"

namespace {

using namespace iob;

// Venue power ratings behind the measured-energy numbers: the calibrated
// host engine stands in for both venues, so energy = measured time x the
// venue's power. The 8:1 ratio mirrors the CostModel's leaf-vs-hub
// efficiency gap closely enough to exercise the same trade-offs.
constexpr double kLeafPowerW = 5e-3;
constexpr double kHubPowerW = 40e-3;

/// Timed passes per measurement; the median of them is reported.
constexpr int kRepetitions = 7;

/// CPU time consumed by the calling thread (s).
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Pins the calling thread to the CPU it runs on for the object's lifetime,
/// so every timed pass runs on the same core; restores the mask on exit.
class PinToCurrentCpu {
 public:
  PinToCurrentCpu() {
    const int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinToCurrentCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinToCurrentCpu(const PinToCurrentCpu&) = delete;
  PinToCurrentCpu& operator=(const PinToCurrentCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// One timed pass of `reps` calls of `fn`: thread CPU seconds per call.
template <typename F>
double pass_s(F& fn, int reps) {
  const double t0 = thread_cpu_s();
  for (int r = 0; r < reps; ++r) fn();
  return (thread_cpu_s() - t0) / reps;
}

/// Calls per pass, doubled until one pass of `fn` fills `min_window_s`
/// (adaptive like google-benchmark, but deterministic in structure).
template <typename F>
int calls_per_pass(double min_window_s, F& fn) {
  fn();  // warm-up
  int reps = 1;
  while (pass_s(fn, reps) * reps < min_window_s) reps *= 2;
  return reps;
}

/// Median thread CPU seconds per call of `fn` over kRepetitions passes.
template <typename F>
double time_call_s(double min_window_s, F&& fn) {
  const int reps = calls_per_pass(min_window_s, fn);
  std::vector<double> passes;
  for (int r = 0; r < kRepetitions; ++r) passes.push_back(pass_s(fn, reps));
  return core::percentile(std::move(passes), 0.5);
}

/// Host-calibrated cost model: both venues run at the engine's throughput
/// for this model/precision, measured as one unsplit pass of `t_full_s`
/// seconds, so `macs / macs_per_s * power` is the analytic twin of
/// `measured time * power`.
partition::CostModel calibrated_cost(const nn::Model& m, const nn::QuantizedModel* qm,
                                     double t_full_s) {
  const double macs_per_s = static_cast<double>(m.total_macs()) / t_full_s;

  partition::CostModel cost;
  cost.transport = qm != nullptr ? nn::Precision::kInt8 : nn::Precision::kF32;
  cost.leaf = {"leaf (host-calibrated)", kLeafPowerW / macs_per_s, macs_per_s};
  cost.hub = {"hub (host-calibrated)", kHubPowerW / macs_per_s, macs_per_s};
  const comm::WiRLink wir;
  cost.leaf_hub = partition::CostModel::leg_from_link(wir, 100e3, 240);
  cost.hub_cloud = partition::CostModel::default_uplink();
  return cost;
}

struct SplitScan {
  std::size_t splits_executed = 0;
  double max_rel_err = 0.0;   ///< max over splits of the median error
  double max_spread = 0.0;    ///< max over splits of the error's max - min
  double mean_rel_err = 0.0;  ///< mean over splits of the median error
  std::size_t wire_checks = 0;
};

/// Execute every feasible split of `m` at one precision: assert the chained
/// output is bit-identical to the unsplit pass and the serialized boundary
/// matches `boundary_bytes`, then time unsplit, prefix and suffix passes in
/// kRepetitions repetitions and compare measured venue energy against the
/// analytic plan of a host-calibrated partitioner, rescaled to each
/// repetition's unsplit pass.
SplitScan scan_splits(const nn::Model& m, const nn::QuantizedModel* qm, double min_window_s) {
  const std::size_t n = m.layer_count();
  const nn::Tensor x = nn::patterned_tensor(m.input_shape(), 7);
  nn::Workspace ws;

  const auto run_range = [&](std::size_t a, std::size_t b, const float* in) {
    return qm != nullptr ? qm->run_range_into(ws, in, 1, a, b)
                         : m.run_range_into(ws, in, 1, a, b);
  };

  // Unsplit reference pass, then the venue calibration: the median time of
  // the unsplit pass prices the partitioner's MACs.
  const nn::ConstSpan full_span = run_range(0, n, x.data());
  const std::vector<float> full_out(full_span.begin(), full_span.end());
  auto full = [&] { benchmark::DoNotOptimize(run_range(0, n, x.data()).data); };
  const double t_calib = time_call_s(min_window_s, full);
  const partition::Partitioner part(m, calibrated_cost(m, qm, t_calib));
  const int full_reps = calls_per_pass(min_window_s, full);

  SplitScan scan;
  double rel_err_sum = 0.0;
  for (std::size_t k = 0; k <= n; ++k) {
    if (qm != nullptr && !qm->feasible_boundary(k)) continue;  // inside a fused pair

    // Leaf venue: layers [0, k). Copy the boundary out of the workspace
    // before the suffix pass reuses the arena.
    std::vector<float> boundary;
    nn::Shape boundary_shape;
    if (k == 0) {
      boundary.assign(x.data(), x.data() + x.size());
      boundary_shape = x.shape();
    } else {
      const nn::ConstSpan pre = run_range(0, k, x.data());
      boundary.assign(pre.begin(), pre.end());
      boundary_shape = m.layer_input_shape(k);
    }

    // Hub venue: layers [k, n) resumed from the shipped boundary.
    std::vector<float> chained = boundary;
    if (k < n) {
      const nn::ConstSpan suf = run_range(k, n, boundary.data());
      chained.assign(suf.begin(), suf.end());
    }

    // Cross-venue correctness: the split pass must reproduce the unsplit
    // logits bit-for-bit (int8 boundary round-trips are value-preserving;
    // f32 fused pairs split into conv + relu with identical arithmetic).
    IOB_ENSURES(chained.size() == full_out.size(), "split output size mismatch");
    for (std::size_t i = 0; i < full_out.size(); ++i) {
      IOB_ENSURES(chained[i] == full_out[i], "split execution diverged from unsplit pass");
    }

    // Wire check: serialize the boundary activation the leaf would ship and
    // hold its byte count to the analytic `boundary_bytes` point-for-point
    // (the plan's `bytes_leaf_to_hub` equals it for k < n and 0 at k == n,
    // where no leg exists).
    const partition::PartitionPlan plan = part.evaluate(k, n);
    const std::int64_t elems = static_cast<std::int64_t>(boundary.size());
    std::int64_t wire_size = 0;
    if (qm != nullptr) {
      const nn::Tensor bt = nn::Tensor::from_data(boundary_shape, boundary.data());
      const nn::QuantizedTensor q =
          k < qm->float_tail_start() ? nn::quantize(bt, qm->boundary_params(k))
                                     : nn::quantize(bt);
      wire_size = static_cast<std::int64_t>(nn::serialize_activation(q).size());
    } else {
      wire_size = elems * 4;
    }
    IOB_ENSURES(wire_size == part.boundary_bytes(k),
                "serialized boundary size diverged from the cost model's bytes");
    IOB_ENSURES(plan.bytes_leaf_to_hub == (k < n ? wire_size : 0),
                "plan's shipped bytes must match the serialized boundary");
    ++scan.wire_checks;

    // Measured venue energy vs the analytic plan, one error per repetition.
    // The plan's energy is MACs / calibrated rate x power, so it scales with
    // the unsplit pass time: rescaling it to this repetition's unsplit pass
    // prices the MACs at the host's speed of the moment.
    auto prefix = [&] { benchmark::DoNotOptimize(run_range(0, k, x.data()).data); };
    auto suffix = [&] { benchmark::DoNotOptimize(run_range(k, n, boundary.data()).data); };
    const int pre_reps = k > 0 ? calls_per_pass(min_window_s, prefix) : 0;
    const int suf_reps = k < n ? calls_per_pass(min_window_s, suffix) : 0;
    const double plan_j = plan.leaf_compute_j + plan.hub_compute_j;
    std::vector<double> errs;
    for (int r = 0; r < kRepetitions; ++r) {
      const double t_full = pass_s(full, full_reps);
      const double t_pre = k > 0 ? pass_s(prefix, pre_reps) : 0.0;
      const double t_suf = k < n ? pass_s(suffix, suf_reps) : 0.0;
      const double predicted_j = plan_j * t_full / t_calib;
      const double measured_j = t_pre * kLeafPowerW + t_suf * kHubPowerW;
      errs.push_back(std::abs(predicted_j - measured_j) / measured_j);
    }
    const auto [lo, hi] = std::minmax_element(errs.begin(), errs.end());
    const double rel_err = core::percentile(errs, 0.5);
    scan.max_rel_err = std::max(scan.max_rel_err, rel_err);
    scan.max_spread = std::max(scan.max_spread, *hi - *lo);
    rel_err_sum += rel_err;
    ++scan.splits_executed;
  }
  scan.mean_rel_err = rel_err_sum / static_cast<double>(scan.splits_executed);
  return scan;
}

/// Adaptive re-partition scenario: a split node on a battery sized so the
/// mission glide path cannot sustain the richest candidate — the
/// controller must shed leaf layers at runtime and re-sync the hub.
/// Returns (repartitions, final split).
std::pair<std::uint64_t, std::uint64_t> adaptive_scenario(const nn::Model& m) {
  constexpr double kHz = 10.0;
  constexpr double kMission = 3600.0;
  partition::CostModel cost;  // stock analytic venues, Wi-R body bus
  const comm::WiRLink wir;
  cost.leaf_hub = partition::CostModel::leg_from_link(wir, 100e3, 240);
  cost.hub_cloud = partition::CostModel::default_uplink();
  const partition::Partitioner part(m, cost);
  partition::AdaptiveSplitConfig acfg;
  acfg.candidates = partition::AdaptiveSplitController::candidates_from(part, kHz);
  acfg.mission_time_s = kMission;
  IOB_EXPECTS(acfg.candidates.size() >= 2, "adaptive scenario needs at least two candidates");

  // Size the battery so the glide budget lands mid-ladder: the controller
  // starts at the richest split and must immediately step down.
  const double p_mid = acfg.candidates[acfg.candidates.size() / 2].leaf_power_w;
  const double battery_v = 3.0;
  const double battery_mah = p_mid * kMission / (3.6 * battery_v);

  net::NetworkConfig nc;
  net::NetworkSim sim(std::make_unique<comm::WiRLink>(), nc);
  net::NodeConfig node;
  node.name = "split-leaf";
  node.stream = "split-leaf";
  node.battery_mah = battery_mah;
  node.battery_v = battery_v;
  net::LeafSplit sp;
  sp.net = &m;
  sp.period_s = 1.0 / kHz;
  sp.adaptive = acfg;
  node.split = sp;
  sim.add_node(std::move(node));

  net::SessionConfig s;
  s.stream = "split-leaf";
  s.net = &m;
  s.precision = nn::Precision::kInt8;
  sim.add_session(net::split_session(std::move(s), acfg.candidates.front().split_at));

  const net::NetworkReport rep = sim.run(10.0);
  const net::SessionStats& st = sim.hub().session("split-leaf");
  IOB_ENSURES(rep.nodes[0].split_repartitions >= 1,
              "glide-starved battery should force at least one re-partition");
  IOB_ENSURES(st.repartitions == rep.nodes[0].split_repartitions,
              "hub re-sync count must match the leaf's re-partitions");
  return {rep.nodes[0].split_repartitions, rep.nodes[0].split_at};
}

void print_headline() {
  const bool smoke = std::getenv("IOB_SPLIT_SMOKE") != nullptr;
  const double min_window_s = smoke ? 2e-3 : 10e-3;

  common::print_banner(
      std::string("Split-execution validation — measured venue energy vs CostModel, "
                  "every feasible split") +
      (smoke ? " [smoke]" : ""));

  struct Entry {
    const char* key;
    nn::Model model;
  };
  Entry entries[] = {{"kws", nn::make_kws_dscnn()},
                     {"ecg", nn::make_ecg_cnn1d()},
                     {"vww", nn::make_vww_micronet()}};

  bench::JsonReporter json("split_validation");
  common::Table t({"model", "precision", "splits", "wire checks", "max rel err",
                   "spread", "mean rel err"});

  double overall_max = 0.0;
  const PinToCurrentCpu pin;
  for (Entry& e : entries) {
    const nn::Model& m = e.model;
    const nn::QuantizedModel qm(m);
    for (const bool int8 : {false, true}) {
      const nn::QuantizedModel* q = int8 ? &qm : nullptr;
      const SplitScan scan = scan_splits(m, q, min_window_s);
      overall_max = std::max(overall_max, scan.max_rel_err);
      const std::string prec = int8 ? "int8" : "f32";
      t.add_row({e.key, prec, std::to_string(scan.splits_executed),
                 std::to_string(scan.wire_checks), common::fixed(scan.max_rel_err, 3),
                 common::fixed(scan.max_spread, 3), common::fixed(scan.mean_rel_err, 3)});
      json.add("split_points_executed_" + std::string(e.key) + "_" + prec,
               static_cast<double>(scan.splits_executed));
      json.add("split_costmodel_max_rel_err_" + std::string(e.key) + "_" + prec,
               scan.max_rel_err);
      json.add("split_costmodel_rel_err_spread_" + std::string(e.key) + "_" + prec,
               scan.max_spread);
      json.add("split_costmodel_mean_rel_err_" + std::string(e.key) + "_" + prec,
               scan.mean_rel_err);
    }
  }
  json.add("split_costmodel_max_rel_err", overall_max);

  const auto [repartitions, final_split] = adaptive_scenario(entries[0].model);
  json.add("split_adaptive_repartitions_kws", static_cast<double>(repartitions));
  json.add("split_adaptive_final_split_kws", static_cast<double>(final_split));

  std::printf("%s", t.to_string().c_str());
  common::print_note("venues host-calibrated: energy = measured range time x venue power "
                     "(leaf 5 mW prefix, hub 40 mW suffix); rel err |pred - meas| / meas");
  common::print_note("time = thread CPU time on one pinned thread; each split's error is the "
                     "median of " + std::to_string(kRepetitions) +
                     " repetitions of unsplit/prefix/suffix passes, the prediction rescaled to "
                     "each repetition's unsplit pass; spread = its max - min");
  common::print_note("every split's chained output asserted bit-identical to the unsplit "
                     "pass; every boundary serialized and size-matched to boundary_bytes");
  common::print_note("adaptive: glide-starved battery forced " + std::to_string(repartitions) +
                     " re-partition(s) on kws, final split k=" + std::to_string(final_split));
  json.write();
}

// ---- microbenchmarks --------------------------------------------------------

struct SplitZoo {
  nn::Model model = nn::make_kws_dscnn();
  nn::QuantizedModel qm{model};
};

SplitZoo& split_zoo() {
  static SplitZoo zoo;
  return zoo;
}

void BM_SplitPrefixInt8(benchmark::State& state) {
  SplitZoo& zoo = split_zoo();
  const std::size_t n = zoo.model.layer_count();
  std::size_t k = n * static_cast<std::size_t>(state.range(0)) / 4;
  while (k > 0 && !zoo.qm.feasible_boundary(k)) --k;
  const nn::Tensor x = nn::patterned_tensor(zoo.model.input_shape(), 1);
  nn::Workspace ws;
  ws.configure(zoo.qm, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zoo.qm.run_range_into(ws, x.data(), 1, 0, k).data);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SplitPrefixInt8)->Arg(1)->Arg(2)->Arg(3)->Unit(benchmark::kMicrosecond);

void BM_SplitSuffixInt8(benchmark::State& state) {
  SplitZoo& zoo = split_zoo();
  const std::size_t n = zoo.model.layer_count();
  std::size_t k = n * static_cast<std::size_t>(state.range(0)) / 4;
  while (k > 0 && !zoo.qm.feasible_boundary(k)) --k;
  const nn::Tensor x = nn::patterned_tensor(zoo.model.input_shape(), 1);
  nn::Workspace ws;
  const nn::ConstSpan pre = zoo.qm.run_range_into(ws, x.data(), 1, 0, k);
  const std::vector<float> boundary(pre.begin(), pre.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(zoo.qm.run_range_into(ws, boundary.data(), 1, k, n).data);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SplitSuffixInt8)->Arg(1)->Arg(2)->Arg(3)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_headline();
  return iob::bench::run_microbenchmarks(argc, argv);
}
