// fleet_sweep: a stressed 2,048-point design grid streamed through
// Fleet::run_streaming with CSV spill on a SweepRunner. Node counts
// {2, 8, 16, 32} stay outermost, as Fleet orders them. Every point runs a
// full NetworkSim of a bio/IMU population plus an audio class whose KWS
// session carries the zoo model, under the adaptive split axis (so
// `partition` re-plans as batteries drain). The hub is analytic, so `nn`
// does no work here: per-point set-up, per-frame sim/comm/net cost, row
// serialization and sweep scheduling do it all.
//
// The traced run maps the same points through SweepRunner::map at the same
// thread count, timing each public call a point makes (point_at,
// build_fleet_point, NetworkSim::run, fleet_result_row) on its worker.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/fleet.hpp"
#include "core/sweep_runner.hpp"
#include "host.hpp"
#include "metrics.hpp"
#include "nn/model_zoo.hpp"
#include "nn_probe.hpp"
#include "phy/body_motion.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace iob;
namespace fs = std::filesystem;

constexpr std::size_t kSeedReplicates = 8;
constexpr double kPointSimS = 2.0;
/// Streaming batch: one node count per batch (the grid's quarters are 512
/// points), so each batch's static chunks are balanced and folding overlaps
/// the next batch, as in a population-scale stream. The whole-grid
/// imbalance of node-count-first order shows in the traced map pass.
constexpr std::size_t kStreamBatchPoints = 256;

core::FleetAxes make_axes(const nn::Model& kws, const std::vector<std::uint64_t>& seeds) {
  core::NodeClassSpec audio;
  audio.base.name = "audio";
  audio.base.sense_power_w = 150e-6;
  audio.base.isa_power_w = 1e-6;
  audio.base.output_rate_bps = 64e3;
  audio.base.slot_weight = 2;
  net::SessionConfig session;
  session.macs_per_inference = kws.total_macs();
  session.bytes_per_inference = 2'000;
  session.model = "kws-dscnn";
  session.weight_bytes = kws.total_params();
  session.net = &kws;
  audio.session = session;

  core::NodeClassSpec bio;
  bio.base.name = "bio";
  bio.base.sense_power_w = 8e-6;
  bio.base.isa_power_w = 1e-6;
  bio.base.output_rate_bps = 5e3;
  bio.share = 2;

  core::NodeClassSpec imu;
  imu.base.name = "imu";
  imu.base.sense_power_w = 60e-6;
  imu.base.isa_power_w = 2e-6;
  imu.base.output_rate_bps = 20e3;

  core::FleetAxes axes;
  axes.node_counts.assign(kFleetNodeCounts.begin(), kFleetNodeCounts.end());
  comm::TdmaConfig downlink;
  downlink.downlink_slot_s = 500e-6;
  axes.macs = {{"slot-1ms", {}}, {"downlink-500us", downlink}};
  axes.mixes = {{"audio+bio+imu", {audio, bio, imu}}};
  axes.batch_windows = {0, 8};
  axes.precisions = {nn::Precision::kF32, nn::Precision::kInt8};
  axes.faults = {core::FaultVariant::kNone, core::FaultVariant::kCombined};
  core::SplitVariant adaptive;
  adaptive.label = "adaptive";
  adaptive.enabled = true;
  adaptive.adaptive = true;
  adaptive.mission_time_s = 5.0 * 365.0 * 86400.0;  // a glide budget below the richest split
  axes.splits = {adaptive};
  axes.sir_levels = {{}, {"gym", {2, 1.0, -5.3}}};
  axes.motion = {{}, {"running", true, phy::running_profile()}};
  axes.seeds = seeds;
  axes.duration_s = kPointSimS;
  return axes;
}

/// The model, grid and runner one measurement uses. Pinned in place: the
/// grid's sessions point at `kws`.
struct Rig {
  Rig(const std::vector<std::uint64_t>& seeds, unsigned threads)
      : kws(nn::make_kws_dscnn()), fleet(make_axes(kws, seeds)), runner(threads) {}
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  nn::Model kws;
  core::Fleet fleet;
  core::SweepRunner runner;
};

/// What one point of a map pass yields.
struct PointOut {
  core::FleetPointResult result;
  std::string row;
  int node_count = 0;
  std::uint64_t hub_inferences = 0;
  std::uint64_t batched_inferences = 0;
  std::uint64_t batched_passes = 0;
  double compute_energy_j = 0.0;
  double queued_sum_s = 0.0;
  std::uint64_t queued_n = 0;
  CommCounts comm;
  std::uint64_t repartitions = 0;
  // phase spans (traced passes only)
  std::size_t worker = 0;
  double point_s = 0.0, point_at_s = 0.0, build_s = 0.0, run_s = 0.0, row_s = 0.0;
};

/// The scalars `core::run_fleet_point` derives from a report. The traced
/// pass calls the phases itself, so it derives them here; the row check
/// against the streamed spill proves the two agree.
void derive_point_scalars(core::FleetPointResult& res) {
  std::uint64_t delivered = 0, dropped = 0;
  double power = 0.0, latency = 0.0, avail = 0.0;
  double min_life = std::numeric_limits<double>::infinity();
  std::size_t perpetual = 0;
  for (const auto& n : res.report.nodes) {
    delivered += n.frames_delivered;
    dropped += n.frames_dropped;
    power += n.average_power_w;
    latency += n.mean_latency_s;
    avail += n.availability;
    min_life = std::min(min_life, n.projected_life_days);
    if (n.perpetual) ++perpetual;
  }
  const double nodes = static_cast<double>(res.report.nodes.size());
  const double offered = static_cast<double>(delivered + dropped);
  res.drop_rate = offered > 0 ? static_cast<double>(dropped) / offered : 0.0;
  res.mean_latency_s = latency / nodes;
  res.mean_leaf_power_w = power / nodes;
  res.min_life_days = min_life;
  res.perpetual_fraction = static_cast<double>(perpetual) / nodes;
  res.mean_availability = avail / nodes;
}

PointOut run_point(const core::Fleet& fleet, std::size_t i, Tracer* tracer,
                   std::uint64_t parent) {
  PointOut o;
  Span point(tracer, "point", parent);
  core::FleetPoint p;
  {
    Span s(tracer, "Fleet::point_at");
    p = fleet.point_at(i);
    o.point_at_s = s.elapsed_s();
  }
  std::unique_ptr<net::NetworkSim> sim;
  {
    Span s(tracer, "build_fleet_point");
    sim = core::build_fleet_point(p);
    o.build_s = s.elapsed_s();
  }
  core::FleetPointResult& r = o.result;
  r.index = p.index;
  r.coord = p.coord;
  {
    Span s(tracer, "NetworkSim::run");
    r.report = sim->run(p.duration_s);
    o.run_s = s.elapsed_s();
  }
  derive_point_scalars(r);
  {
    Span s(tracer, "fleet_result_row");
    o.row = core::fleet_result_row(r);
    o.row_s = s.elapsed_s();
  }
  o.node_count = p.node_count;
  for (std::size_t k = 0; k < sim->node_count(); ++k) {
    const net::Node& node = sim->node(k);
    if (node.config().split) o.repartitions += node.split_stats().repartitions;
    if (node.config().name.rfind("audio-", 0) != 0) continue;  // only audio nodes have sessions
    const net::SessionStats& st = sim->hub().session(node.config().stream);
    o.hub_inferences += st.inferences;
    o.batched_inferences += st.batched_inferences;
    o.compute_energy_j += st.compute_energy_j;
    o.queued_sum_s += st.queued_latency_s.sum();
    o.queued_n += st.queued_latency_s.count();
  }
  o.batched_passes = sim->hub().batched_passes();
  o.comm.add(sim->bus().stats());
  if (tracer) {
    o.worker = tracer->worker();
    o.point_s = point.elapsed_s();
  }
  return o;
}

struct MapPass {
  std::vector<PointOut> points;
  double wall_s = 0.0;
};

MapPass map_pass(const Rig& rig, Tracer* tracer) {
  MapPass pass;
  const auto t0 = std::chrono::steady_clock::now();
  Span s(tracer, "SweepRunner::map");
  const std::uint64_t parent = s.id();
  pass.points = rig.runner.map<PointOut>(rig.fleet.size(), [&](std::size_t i) {
    return run_point(rig.fleet, i, tracer, parent);
  });
  pass.wall_s = seconds_since(t0);
  return pass;
}

std::string read_file(const fs::path& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// The spill shards of a streaming pass, concatenated in name order.
std::string read_spill(const fs::path& dir) {
  std::vector<fs::path> shards;
  for (const auto& entry : fs::directory_iterator(dir)) shards.push_back(entry.path());
  std::sort(shards.begin(), shards.end());
  std::string out;
  for (const fs::path& p : shards) out += read_file(p);
  return out;
}

struct StreamPass {
  core::FleetStreamResult result;
  double wall_s = 0.0;
  std::string spill;
};

StreamPass stream_pass(const Rig& rig, const core::Fleet& fleet, const fs::path& dir,
                       Tracer* tracer) {
  fs::remove_all(dir);
  core::FleetStreamConfig cfg;
  cfg.batch_points = kStreamBatchPoints;
  cfg.spill = core::StreamSinkConfig{};
  cfg.spill->directory = dir.string();
  cfg.spill->basename = "fleet";
  cfg.spill->format = core::StreamFormat::kCsv;
  StreamPass pass;
  const auto t0 = std::chrono::steady_clock::now();
  {
    Span s(tracer, "Fleet::run_streaming");
    pass.result = fleet.run_streaming(rig.runner, cfg);
  }
  pass.wall_s = seconds_since(t0);
  pass.spill = read_spill(dir);
  return pass;
}

/// Streamed spill == header + the map pass's rows, row by row, and the
/// streamed point count == Fleet::size().
void check_rows(const Rig& rig, const StreamPass& s, const MapPass& m, const std::string& what,
                Outcome& out) {
  const std::size_t n = rig.fleet.size();
  out.check(s.result.points == n && s.result.spilled_rows == n,
            what + ": streamed point count == Fleet::size()");
  out.check(m.points.size() == n, what + ": mapped point count == Fleet::size()");
  const std::string header = core::fleet_csv_header();
  out.check(s.spill.compare(0, header.size(), header) == 0, what + ": spill header");
  std::size_t pos = header.size();
  for (std::size_t i = 0; i < m.points.size(); ++i) {
    const std::string& row = m.points[i].row;
    const bool same = s.spill.compare(pos, row.size(), row) == 0;
    out.check(same, what + ": row " + std::to_string(i) + " byte-identical");
    pos += row.size();
  }
  out.check(pos == s.spill.size(), what + ": no extra spilled bytes");
}

void check_same_rows(const MapPass& a, const MapPass& b, const std::string& what, Outcome& out) {
  out.check(a.points.size() == b.points.size(), what + ": point count");
  for (std::size_t i = 0; i < std::min(a.points.size(), b.points.size()); ++i) {
    out.check(a.points[i].row == b.points[i].row,
              what + ": row " + std::to_string(i) + " byte-identical");
  }
}

std::vector<std::uint64_t> seed_axis(std::uint64_t seed) {
  InputRng rng(seed);
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < kSeedReplicates; ++i) seeds.push_back(rng.next());
  return seeds;
}

/// Set-up: the model, grid and runner (pool spawn), then one untimed
/// warm-up stream over the whole grid.
std::unique_ptr<Rig> set_up(const Options& opt, const fs::path& spill_dir, Tracer* tracer) {
  Span s(tracer, "setup");
  auto rig = std::make_unique<Rig>(seed_axis(opt.seed), opt.threads);
  (void)stream_pass(*rig, rig->fleet, spill_dir, nullptr);
  return rig;
}

void run_untraced(const Options& opt, Outcome& out) {
  const fs::path spill_dir = fs::path(opt.out_dir) / "spill-fleet";
  EndToEnd e;
  std::vector<double> setups;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < 3; ++i) {
    rig.reset();
    const auto t0 = std::chrono::steady_clock::now();
    rig = set_up(opt, spill_dir, nullptr);
    setups.push_back(seconds_since(t0));
  }
  e.setup_s = median(setups);

  const MapPass reference = map_pass(*rig, nullptr);
  std::vector<double> walls;
  StreamPass last;
  const auto t0 = std::chrono::steady_clock::now();
  while (walls.size() < 3 || seconds_since(t0) < opt.seconds) {
    rotate_onto_cpu(static_cast<unsigned>(walls.size()));
    last = stream_pass(*rig, rig->fleet, spill_dir, nullptr);
    walls.push_back(last.wall_s);
    std::cerr << "perfbench: pass " << walls.size() << ": " << last.wall_s << " s\n";
    out.ops(last.result.points);
    check_rows(*rig, last, reference, "streamed pass vs mapped pass", out);
  }

  std::uint64_t inferences = 0, delivered = 0, offered = 0, queued_n = 0;
  double energy = 0.0, queued_sum = 0.0;
  for (const PointOut& p : reference.points) {
    inferences += p.hub_inferences;
    energy += p.compute_energy_j;
    queued_sum += p.queued_sum_s;
    queued_n += p.queued_n;
    delivered += p.comm.delivered;
    offered += p.comm.delivered + p.comm.dropped();
  }
  const double points = static_cast<double>(rig->fleet.size());
  std::vector<double> points_per_s, items_per_s;
  for (const double w : walls) {
    points_per_s.push_back(points / w);
    items_per_s.push_back(static_cast<double>(inferences) / w);
  }
  e.fleet_points_per_s = median(points_per_s);
  e.hub_items_per_s = median(items_per_s);
  e.hub_compute_energy_per_item_uj = energy / static_cast<double>(inferences) * 1e6;
  e.sim_delivery_latency_mean_s = last.result.summary.overall.mean_latency_s;
  e.sim_queued_latency_mean_s = queued_sum / static_cast<double>(queued_n);
  e.frame_delivery_ratio = static_cast<double>(delivered) / static_cast<double>(offered);
  e.leaf_life_p10_days = last.result.summary.overall.life_p10_days;
  emit_end_to_end(e, out);
}

void run_traced(const Options& opt, Outcome& out) {
  const fs::path spill_dir = fs::path(opt.out_dir) / "spill-fleet";
  Tracer tracer;
  const std::unique_ptr<Rig> rig = set_up(opt, spill_dir, &tracer);
  const StreamPass streamed = stream_pass(*rig, rig->fleet, spill_dir, &tracer);
  out.ops(streamed.result.points);

  // Alternate untraced and traced map passes; tracing overhead is the
  // difference of their median walls at the same thread count.
  std::vector<MapPass> traced;
  std::vector<double> untraced_walls, traced_walls;
  for (int i = 0; i < 3; ++i) {
    const MapPass plain = map_pass(*rig, nullptr);
    untraced_walls.push_back(plain.wall_s);
    traced.push_back(map_pass(*rig, &tracer));
    traced_walls.push_back(traced.back().wall_s);
    out.ops(plain.points.size() + traced.back().points.size());
    check_same_rows(plain, traced.back(), "untraced map vs traced map", out);
    check_rows(*rig, streamed, traced.back(), "streamed pass vs traced map", out);
  }

  PerLayer p;
  const double untraced_wall = median(untraced_walls);
  p.trace_overhead_s = median(traced_walls) - untraced_wall;
  p.trace_overhead_share = p.trace_overhead_s / untraced_wall;

  const double threads = static_cast<double>(rig->runner.threads());
  double n_points = 0.0, frames = 0.0, run_total = 0.0;
  std::array<double, kFleetNodeCounts.size()> run_sum{}, run_n{};
  std::vector<double> efficiency, imbalance;
  for (const MapPass& pass : traced) {
    std::vector<double> busy(rig->runner.threads(), 0.0);
    double spans = 0.0;
    for (const PointOut& o : pass.points) {
      n_points += 1.0;
      p.point_at_us += o.point_at_s * 1e6;
      p.build_fleet_point_us += o.build_s * 1e6;
      p.fleet_result_row_us += o.row_s * 1e6;
      p.fleet_result_row_bytes += static_cast<double>(o.row.size());
      run_total += o.run_s;
      frames += static_cast<double>(o.comm.delivered + o.comm.dropped());
      for (std::size_t k = 0; k < kFleetNodeCounts.size(); ++k) {
        if (o.node_count == kFleetNodeCounts[k]) {
          run_sum[k] += o.run_s * 1e6;
          run_n[k] += 1.0;
        }
      }
      if (o.worker >= busy.size()) busy.resize(o.worker + 1, 0.0);
      busy[o.worker] += o.point_s;
      spans += o.point_s;
    }
    efficiency.push_back(spans / (threads * pass.wall_s));
    imbalance.push_back(*std::max_element(busy.begin(), busy.end()) / (spans / threads));
  }
  p.point_at_us /= n_points;
  p.build_fleet_point_us /= n_points;
  p.fleet_result_row_us /= n_points;
  p.fleet_result_row_bytes /= n_points;
  for (std::size_t k = 0; k < kFleetNodeCounts.size(); ++k) {
    p.run_us_per_point[k] = run_n[k] > 0.0 ? run_sum[k] / run_n[k] : 0.0;
  }
  p.run_ns_per_frame = frames > 0.0 ? run_total / frames * 1e9 : 0.0;
  p.sweep_parallel_efficiency = median(efficiency);
  p.sweep_worker_imbalance = median(imbalance);

  std::vector<core::FleetPointResult> results;
  for (const PointOut& o : traced.front().points) results.push_back(o.result);
  std::vector<double> fold_us;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    Span s(&tracer, "Fleet::summarize");
    (void)rig->fleet.summarize(results);
    fold_us.push_back(seconds_since(t0) * 1e6 / static_cast<double>(results.size()));
  }
  p.fold_us = median(fold_us);

  std::uint64_t inferences = 0, passes = 0;
  for (const PointOut& o : traced.front().points) {
    inferences += o.batched_inferences;
    passes += o.batched_passes;
    p.comm.add(o.comm);
    p.repartitions += static_cast<double>(o.repartitions);
  }
  p.hub_group_passes = static_cast<double>(passes);
  p.hub_items_per_pass =
      passes == 0 ? 0.0 : static_cast<double>(inferences) / static_cast<double>(passes);

  const Zoo zoo;
  p.nn = nn_layer_metrics(zoo, opt.seed, false, nullptr, out);
  emit_per_layer(p, out);
  tracer.write_chrome_trace(opt.out_dir + "/trace-fleet_sweep-seed" + std::to_string(opt.seed) +
                            ".json");
}

}  // namespace

void run_fleet_sweep(const Options& opt, Outcome& out) {
  if (opt.trace) {
    run_traced(opt, out);
  } else {
    run_untraced(opt, out);
  }
}

}  // namespace perfbench
