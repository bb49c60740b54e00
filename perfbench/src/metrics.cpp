#include "metrics.hpp"

#include "host.hpp"

namespace perfbench {

void CommCounts::add(const iob::comm::MacStats& mac) {
  for (const iob::comm::MacNodeStats& n : mac.nodes) {
    delivered += n.frames_delivered;
    retried += n.frames_retried;
    dropped_arq += n.frames_dropped_arq;
    dropped_fault += n.frames_dropped_fault;
    dropped_overflow += n.frames_dropped_overflow;
    dropped_overflow_clean += n.frames_dropped_overflow_clean;
    dropped_shed += n.frames_dropped_shed;
  }
  utilization_sum += mac.utilization();
  ++buses;
}

void CommCounts::add(const CommCounts& o) {
  delivered += o.delivered;
  retried += o.retried;
  dropped_arq += o.dropped_arq;
  dropped_fault += o.dropped_fault;
  dropped_overflow += o.dropped_overflow;
  dropped_overflow_clean += o.dropped_overflow_clean;
  dropped_shed += o.dropped_shed;
  utilization_sum += o.utilization_sum;
  buses += o.buses;
}

void emit_end_to_end(const EndToEnd& e, Outcome& out) {
  Metrics& m = out.metrics;
  m.set("setup_s", e.setup_s, "s");
  m.set("fleet_points_per_s", e.fleet_points_per_s, "1/s");
  m.set("hub_items_per_s", e.hub_items_per_s, "1/s");
  m.set("hub_compute_energy_per_item_uj", e.hub_compute_energy_per_item_uj, "uJ");
  m.set("sim_delivery_latency_mean_s", e.sim_delivery_latency_mean_s, "sim_s");
  m.set("sim_queued_latency_mean_s", e.sim_queued_latency_mean_s, "sim_s");
  m.set("frame_delivery_ratio", e.frame_delivery_ratio, "ratio");
  m.set("leaf_life_p10_days", e.leaf_life_p10_days, "days");
  m.set("peak_rss_mb", peak_rss_mb(), "MiB");
  m.set("ok_ops_ratio", out.ok_ratio(), "ratio");
}

void emit_per_layer(const PerLayer& p, Outcome& out) {
  Metrics& m = out.metrics;
  m.set("core.point_at.us_per_point", p.point_at_us, "us");
  m.set("core.build_fleet_point.us_per_point", p.build_fleet_point_us, "us");
  m.set("core.fleet_result_row.us_per_point", p.fleet_result_row_us, "us");
  m.set("core.fleet_result_row.bytes_per_point", p.fleet_result_row_bytes, "bytes");
  m.set("core.fold.us_per_point", p.fold_us, "us");
  m.set("core.sweep.parallel_efficiency", p.sweep_parallel_efficiency, "ratio");
  m.set("core.sweep.worker_imbalance", p.sweep_worker_imbalance, "ratio");

  for (std::size_t i = 0; i < kFleetNodeCounts.size(); ++i) {
    m.set("net.run.us_per_point.n" + std::to_string(kFleetNodeCounts[i]), p.run_us_per_point[i],
          "us");
  }
  m.set("net.run.ns_per_frame", p.run_ns_per_frame, "ns");
  m.set("net.hub.group_passes", p.hub_group_passes, "count");
  m.set("net.hub.items_per_pass", p.hub_items_per_pass, "count");
  m.set("net.hub.kernel_share", p.hub_kernel_share, "ratio");
  m.set("net.hub.non_kernel_s", p.hub_non_kernel_s, "s");
  m.set("net.hub.meter_inflation", p.hub_meter_inflation, "ratio");

  const CommCounts& c = p.comm;
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  m.set("comm.frames_delivered", count(c.delivered), "count");
  m.set("comm.frames_retried", count(c.retried), "count");
  const std::uint64_t attempts = c.delivered + c.retried;
  m.set("comm.retry_ratio", attempts == 0 ? 0.0 : count(c.retried) / count(attempts), "ratio");
  m.set("comm.frames_dropped.arq", count(c.dropped_arq), "count");
  m.set("comm.frames_dropped.fault", count(c.dropped_fault), "count");
  m.set("comm.frames_dropped.overflow", count(c.dropped_overflow), "count");
  m.set("comm.frames_dropped.overflow_clean", count(c.dropped_overflow_clean), "count");
  m.set("comm.frames_dropped.shed", count(c.dropped_shed), "count");
  m.set("comm.bus_utilization", c.buses == 0 ? 0.0 : c.utilization_sum / count(c.buses), "ratio");

  m.set("partition.repartitions", p.repartitions, "count");
  for (const NamedValue& v : p.nn) m.set(v.name, v.value, v.unit);
  m.set("trace.overhead_s", p.trace_overhead_s, "s");
  m.set("trace.overhead_share", p.trace_overhead_share, "ratio");
}

}  // namespace perfbench
