#pragma once
/// \file metrics.hpp
/// The benchmark's metric catalogue. Every workload reports every metric of
/// a run's kind, so each is a field here with a zero default; a per-layer
/// family a workload does not exercise reads 0 (README: "0 = not exercised").

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "comm/mac_stats.hpp"
#include "report.hpp"

namespace perfbench {

/// Node counts of the fleet grid, outermost axis (net.run.us_per_point.n*).
constexpr std::array<int, 4> kFleetNodeCounts{2, 8, 16, 32};

/// End-to-end metrics of the untraced run. `peak_rss_mb` and `ok_ops_ratio`
/// are filled by `emit_end_to_end` from the process and the outcome tally.
struct EndToEnd {
  double setup_s = 0.0;
  double fleet_points_per_s = 0.0;
  double hub_items_per_s = 0.0;
  double hub_compute_energy_per_item_uj = 0.0;
  double sim_delivery_latency_mean_s = 0.0;
  double sim_queued_latency_mean_s = 0.0;
  double frame_delivery_ratio = 0.0;
  double leaf_life_p10_days = 0.0;
};

/// Frame counts summed over every simulated bus of a run.
struct CommCounts {
  std::uint64_t delivered = 0;
  std::uint64_t retried = 0;  ///< lost transmission attempts
  std::uint64_t dropped_arq = 0;
  std::uint64_t dropped_fault = 0;
  std::uint64_t dropped_overflow = 0;
  std::uint64_t dropped_overflow_clean = 0;
  std::uint64_t dropped_shed = 0;
  double utilization_sum = 0.0;
  std::uint64_t buses = 0;

  void add(const iob::comm::MacStats& mac);
  void add(const CommCounts& other);
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_arq + dropped_fault + dropped_overflow + dropped_overflow_clean + dropped_shed;
  }
};

struct NamedValue {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Per-layer metrics of the traced run.
struct PerLayer {
  // core
  double point_at_us = 0.0;
  double build_fleet_point_us = 0.0;
  double fleet_result_row_us = 0.0;
  double fleet_result_row_bytes = 0.0;
  double fold_us = 0.0;
  double sweep_parallel_efficiency = 0.0;
  double sweep_worker_imbalance = 0.0;
  // net
  std::array<double, kFleetNodeCounts.size()> run_us_per_point{};
  double run_ns_per_frame = 0.0;
  double hub_group_passes = 0.0;
  double hub_items_per_pass = 0.0;
  double hub_kernel_share = 0.0;
  double hub_non_kernel_s = 0.0;
  double hub_meter_inflation = 0.0;
  // comm
  CommCounts comm;
  // partition
  double repartitions = 0.0;
  // nn: see nn_probe.hpp for the names
  std::vector<NamedValue> nn;
  // tracing cost (fleet_sweep: traced minus untraced sweep wall)
  double trace_overhead_s = 0.0;
  double trace_overhead_share = 0.0;
};

/// Adds every end-to-end metric, then `peak_rss_mb` and `ok_ops_ratio`.
void emit_end_to_end(const EndToEnd& e, Outcome& out);

/// Adds every per-layer metric.
void emit_per_layer(const PerLayer& p, Outcome& out);

}  // namespace perfbench
