#include "core/fleet.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "comm/ble_link.hpp"
#include "comm/nfmi_link.hpp"
#include "comm/wir_link.hpp"
#include "common/expect.hpp"
#include "common/table.hpp"
#include "nn/model.hpp"
#include "partition/adaptive_split.hpp"
#include "partition/partitioner.hpp"

namespace iob::core {

namespace {

/// Round-trip-exact double formatting for the canonical CSV, appended to
/// `out`. `to_chars(general, 17)` is specified to produce printf's "%.17g"
/// bytes; NaN is always written "nan" whatever its sign bit.
void append_exact(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "nan";
    return;
  }
  char buf[32];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

void append_uint(std::string& out, std::uint64_t v) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

/// Human formatting for a possibly-infinite lifetime (days).
std::string life_str(double days) {
  if (std::isinf(days)) return "perpetual";
  return common::fixed(days, 1) + " d";
}

}  // namespace

std::string to_string(BusKind kind) {
  switch (kind) {
    case BusKind::kWiR: return "wir";
    case BusKind::kWiRUlp: return "wir-ulp";
    case BusKind::kBle: return "ble";
    case BusKind::kNfmi: return "nfmi";
  }
  return "unknown";
}

std::string to_string(FleetAxis axis) {
  switch (axis) {
    case kAxisNodeCount: return "node count";
    case kAxisMac: return "mac";
    case kAxisMix: return "node mix";
    case kAxisHarvest: return "harvesting";
    case kAxisBus: return "bus";
    case kAxisBatch: return "batch window";
    case kAxisPrecision: return "precision";
    case kAxisSeed: return "seed";
    case kAxisFault: return "faults";
    case kAxisSplit: return "split";
    case kAxisSir: return "interference";
    case kAxisMotion: return "motion";
    default: return "unknown";
  }
}

std::string to_string(FaultVariant variant) {
  switch (variant) {
    case FaultVariant::kNone: return "none";
    case FaultVariant::kBrownout: return "brownout";
    case FaultVariant::kHubFlap: return "hub-flap";
    case FaultVariant::kBurstLoss: return "burst-loss";
    case FaultVariant::kCombined: return "combined";
  }
  return "unknown";
}

sim::FaultPlan make_fault_plan(FaultVariant variant, double intensity) {
  IOB_EXPECTS(intensity > 0.0, "fault intensity must be positive");
  sim::FaultPlan plan;
  // Canonical regimes (docs/robustness.md). Intensity raises how *often*
  // faults strike — crash inter-arrivals and good-channel dwells shrink —
  // while episode durations and brownout thresholds stay put, so higher
  // intensity monotonically degrades availability.
  const sim::BrownoutPlan brownout{/*off_soc=*/0.05, /*on_soc=*/0.15,
                                   /*reboot_energy_j=*/1e-3, /*sleep_power_w=*/1e-6};
  const sim::HubFlapPlan hub_flap{/*mean_up_s=*/2.0 / intensity, /*mean_down_s=*/0.5,
                                  /*periodic=*/false};
  const sim::BurstLossPlan burst_loss{/*mean_good_s=*/0.5 / intensity,
                                      /*mean_bad_s=*/0.125, /*bad_loss=*/0.5};
  switch (variant) {
    case FaultVariant::kNone:
      break;
    case FaultVariant::kBrownout:
      plan.brownout = brownout;
      break;
    case FaultVariant::kHubFlap:
      plan.hub_flap = hub_flap;
      break;
    case FaultVariant::kBurstLoss:
      plan.burst_loss = burst_loss;
      break;
    case FaultVariant::kCombined:
      plan.brownout = brownout;
      plan.hub_flap = hub_flap;
      plan.burst_loss = burst_loss;
      break;
  }
  return plan;
}

std::unique_ptr<const comm::Link> make_bus_link(BusKind kind) {
  switch (kind) {
    case BusKind::kWiR: return std::make_unique<comm::WiRLink>();
    case BusKind::kWiRUlp:
      return std::make_unique<comm::WiRLink>(comm::WiRLink::ulp_profile());
    case BusKind::kBle: return std::make_unique<comm::BleLink>();
    case BusKind::kNfmi: return std::make_unique<comm::NfmiLink>();
  }
  IOB_EXPECTS(false, "unknown BusKind");
  return nullptr;
}

std::size_t FleetAxes::size() const {
  return node_counts.size() * macs.size() * mixes.size() * harvests.size() *
         buses.size() * batch_windows.size() * precisions.size() * faults.size() *
         splits.size() * sir_levels.size() * motion.size() * seeds.size();
}

namespace {

/// Share-weighted round robin: node i takes the class at position
/// i mod total_share of the share-expanded class sequence. Returns the
/// class's index in `mix.classes`. The single source of truth for class
/// assignment (node configs and hub sessions must agree on it).
std::size_t select_node_class(const NodeMix& mix, int i) {
  const auto& classes = mix.classes;
  IOB_EXPECTS(!classes.empty(), "fleet point mix has no node classes");
  unsigned total_share = 0;
  for (const auto& c : classes) total_share += c.share;
  IOB_EXPECTS(total_share > 0, "mix shares sum to zero");
  unsigned r = static_cast<unsigned>(i) % total_share;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    if (r < classes[c].share) return c;
    r -= classes[c].share;
  }
  return classes.size() - 1;
}

/// Does this class participate in the point's split axis? Only classes
/// whose hub session carries an executable model can be partitioned.
bool class_splits(const FleetPoint& p, const NodeClassSpec& cls) {
  return p.split.enabled && cls.session && cls.session->net != nullptr;
}

/// Split-inference period: the time the class's raw stream took to fill one
/// unsplit inference window, so splitting preserves the inference rate.
double split_period_s(const NodeClassSpec& cls) {
  return static_cast<double>(cls.session->bytes_per_inference) * 8.0 /
         cls.base.output_rate_bps;
}

/// Fixed split point: round(leaf_fraction * n), clamped to [0, n].
std::size_t split_point_for(const nn::Model& net, double fraction) {
  const double n = static_cast<double>(net.layer_count());
  const double k = std::round(fraction * n);
  return static_cast<std::size_t>(std::clamp(k, 0.0, n));
}

/// Adaptive candidate list for a class: the analytic `CostModel` with the
/// variant's leaf silicon, the point's bus link priced at the class's
/// offered rate, and the point's transport precision. Pure function of the
/// point spec — deterministic across threads.
partition::AdaptiveSplitConfig adaptive_config_for(const FleetPoint& p,
                                                   const NodeClassSpec& cls) {
  partition::CostModel cost;
  cost.transport = p.precision;
  cost.leaf.energy_per_mac_j = p.split.leaf_energy_per_mac_j;
  const std::unique_ptr<const comm::Link> link = make_bus_link(p.bus);
  cost.leaf_hub = partition::CostModel::leg_from_link(*link, cls.base.output_rate_bps,
                                                      cls.base.frame_bytes);
  cost.hub_cloud = partition::CostModel::default_uplink();
  const partition::Partitioner part(*cls.session->net, cost);
  partition::AdaptiveSplitConfig acfg;
  acfg.candidates =
      partition::AdaptiveSplitController::candidates_from(part, 1.0 / split_period_s(cls));
  acfg.mission_time_s = p.split.mission_time_s;
  return acfg;
}

/// How a class starts under the point's split variant: its initial split
/// point (the adaptive controller starts at its richest candidate) and,
/// when adaptive, the candidate list; empty for a class that does not
/// split. The node config and the hub session both read the split point
/// from one plan, so they agree by construction; a point computes it once
/// per class.
struct SplitPlan {
  std::size_t split_at = 0;
  std::optional<partition::AdaptiveSplitConfig> adaptive{};
};

SplitPlan split_plan_for(const FleetPoint& p, const NodeClassSpec& cls) {
  SplitPlan plan;
  if (!class_splits(p, cls)) return plan;
  if (p.split.adaptive) {
    plan.adaptive = adaptive_config_for(p, cls);
    plan.split_at = plan.adaptive->candidates.front().split_at;
  } else {
    plan.split_at = split_point_for(*cls.session->net, p.split.leaf_fraction);
  }
  return plan;
}

/// Resolve the config a class gives to node `i` of point `p`; `plan` is the
/// class's split plan (read only when the class splits).
net::NodeConfig node_config_for_class(const FleetPoint& p, const NodeClassSpec& cls, int i,
                                      const SplitPlan& plan) {
  static const std::string kDefaultStream = net::NodeConfig{}.stream;
  net::NodeConfig cfg = cls.base;
  cfg.name = cls.base.name + "-" + std::to_string(i);
  // Empty or left at the NodeConfig default -> one stream per node;
  // an explicitly set tag pins the whole class to a shared stream.
  const std::string& base_stream = cls.base.stream;
  cfg.stream = (base_stream.empty() || base_stream == kDefaultStream) ? cfg.name : base_stream;
  if (p.harvest.harvester) cfg.harvester = p.harvest.harvester;
  if (class_splits(p, cls)) {
    net::LeafSplit sp;
    sp.net = cls.session->net;
    sp.precision = p.precision;
    sp.period_s = split_period_s(cls);
    sp.energy_per_mac_j = p.split.leaf_energy_per_mac_j;
    sp.adaptive = plan.adaptive;
    sp.split_at = plan.split_at;
    cfg.split = std::move(sp);
  }
  return cfg;
}

}  // namespace

std::unique_ptr<net::NetworkSim> build_fleet_point(const FleetPoint& p) {
  IOB_EXPECTS(p.node_count >= 1, "fleet point needs at least one node");
  net::NetworkConfig nc;
  nc.seed = p.seed;
  nc.mac = p.mac.config;
  nc.hub.batch_window = p.batch_window;
  nc.hub.engine_threads = p.hub_engine_threads;
  nc.faults = make_fault_plan(p.fault);
  // Channel hostility axes: an engaged SIR level or motion chain installs a
  // `comm::ChannelDynamics` overlay; the clean/off defaults leave the config
  // disengaged so the bus path stays bit-identical to pre-dynamics grids.
  if (p.sir.level.aggressors > 0 && p.sir.level.duty_cycle > 0.0) {
    nc.dynamics.interference = p.sir.level;
  }
  if (p.motion.enabled) nc.dynamics.motion = p.motion.params;
  auto sim = std::make_unique<net::NetworkSim>(make_bus_link(p.bus), nc);

  // One split plan per class, computed the first time a node of that class
  // is built.
  std::vector<std::optional<SplitPlan>> plans(p.mix.classes.size());
  for (int i = 0; i < p.node_count; ++i) {
    const std::size_t c = select_node_class(p.mix, i);
    const NodeClassSpec& cls = p.mix.classes[c];
    if (!plans[c]) plans[c] = split_plan_for(p, cls);
    net::NodeConfig cfg = node_config_for_class(p, cls, i, *plans[c]);
    const std::string stream = cfg.stream;
    sim->add_node(std::move(cfg));
    if (cls.session) {
      net::SessionConfig s = *cls.session;
      s.stream = stream;
      s.precision = p.precision;  // the precision axis reaches every session
      // A split class's hub runs the suffix of the split its node runs.
      if (class_splits(p, cls)) s = net::split_session(std::move(s), plans[c]->split_at);
      sim->add_session(std::move(s));
    }
  }
  return sim;
}

FleetPointResult run_fleet_point(const FleetPoint& p) {
  IOB_EXPECTS(p.duration_s > 0, "fleet point duration must be positive");
  std::unique_ptr<net::NetworkSim> sim = build_fleet_point(p);
  FleetPointResult res;
  res.index = p.index;
  res.coord = p.coord;
  res.report = sim->run(p.duration_s);

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
  const double offered = static_cast<double>(delivered + dropped);
  res.drop_rate = offered > 0 ? static_cast<double>(dropped) / offered : 0.0;
  res.mean_latency_s = latency / static_cast<double>(res.report.nodes.size());
  res.mean_leaf_power_w = power / static_cast<double>(res.report.nodes.size());
  res.min_life_days = min_life;
  res.perpetual_fraction =
      static_cast<double>(perpetual) / static_cast<double>(res.report.nodes.size());
  res.mean_availability = avail / static_cast<double>(res.report.nodes.size());
  return res;
}

std::string fleet_csv_header() {
  return
      "index,coord,drop_rate,mean_latency_s,mean_leaf_power_w,min_life_days,perpetual_fraction,"
      "hub_power_w,goodput_bps,bus_utilization,elapsed_s,nodes...\n";
}

std::string fleet_result_row(const FleetPointResult& r) {
  std::string out;
  out.reserve(256 + 160 * r.report.nodes.size());
  const auto put_double = [&out](char sep, double v) {
    out += sep;
    append_exact(out, v);
  };
  const auto put_uint = [&out](char sep, std::uint64_t v) {
    out += sep;
    append_uint(out, v);
  };
  append_uint(out, r.index);
  out += ',';
  // Byte-compat contract: the coord prefix serializes exactly the eight
  // pre-fault axes; the fault/split/SIR/motion coordinates appear only as
  // ":f<i>" / ":s<i>" / ":i<i>" / ":m<i>" suffixes on points actually swept
  // off the clean regime, so default grids stay byte-identical to older
  // output.
  append_uint(out, r.coord[0]);
  for (std::size_t a = 1; a <= kAxisSeed; ++a) put_uint(':', r.coord[a]);
  const std::pair<FleetAxis, const char*> suffixes[] = {
      {kAxisFault, ":f"}, {kAxisSplit, ":s"}, {kAxisSir, ":i"}, {kAxisMotion, ":m"}};
  for (const auto& [axis, tag] : suffixes) {
    if (r.coord[axis] == 0) continue;
    out += tag;
    append_uint(out, r.coord[axis]);
  }
  for (const double v : {r.drop_rate, r.mean_latency_s, r.mean_leaf_power_w, r.min_life_days,
                         r.perpetual_fraction, r.report.hub_power_w,
                         r.report.aggregate_goodput_bps, r.report.bus_utilization,
                         r.report.elapsed_s}) {
    put_double(',', v);
  }
  for (const auto& n : r.report.nodes) {
    out += ',';
    out += n.name;
    put_double(':', n.average_power_w);
    put_double(':', n.comm_power_w);
    put_double(':', n.projected_life_days);
    out += n.perpetual ? ":1" : ":0";
    put_uint(':', n.frames_delivered);
    put_uint(':', n.frames_dropped);
    put_double(':', n.mean_latency_s);
    put_double(':', n.max_latency_s);
    // Fault telemetry serializes only for nodes that saw fault activity
    // (clean-path rows, including their ARQ drops, are untouched bytes).
    // The clean-overflow and shedding buckets extend the group only when
    // non-zero: fault rows emitted by older code had neither, so their six
    // historical fields keep their exact bytes.
    if (n.reboots > 0 || n.downtime_s > 0.0 || n.dropped_fault > 0 || n.dropped_overflow > 0 ||
        n.dropped_overflow_clean > 0 || n.dropped_shed > 0) {
      out += ":flt";
      put_uint(':', n.reboots);
      put_double(':', n.downtime_s);
      put_double(':', n.availability);
      put_uint(':', n.dropped_arq);
      put_uint(':', n.dropped_fault);
      put_uint(':', n.dropped_overflow);
      if (n.dropped_overflow_clean > 0 || n.dropped_shed > 0) {
        put_uint(':', n.dropped_overflow_clean);
        put_uint(':', n.dropped_shed);
      }
    }
    // Split telemetry serializes only for nodes that actually ran a
    // split (clean-path rows are untouched bytes).
    if (n.split_inferences > 0 || n.split_repartitions > 0) {
      out += ":spl";
      put_uint(':', n.split_at);
      put_uint(':', n.split_inferences);
      put_uint(':', n.split_activation_bytes);
      put_double(':', n.split_compute_energy_j);
      put_uint(':', n.split_repartitions);
    }
  }
  if (r.report.hub_crashes > 0) {
    out += ",hubflt";
    put_uint(':', r.report.hub_crashes);
    put_double(':', r.report.hub_downtime_s);
    put_double(':', r.report.hub_availability);
  }
  out += '\n';
  return out;
}

std::string fleet_results_csv(const std::vector<FleetPointResult>& results) {
  std::string out = fleet_csv_header();
  for (const auto& r : results) out += fleet_result_row(r);
  return out;
}

FleetStreamRecord fleet_stream_record(const FleetPointResult& r) {
  FleetStreamRecord rec;
  rec.index = r.index;
  rec.drop_rate = r.drop_rate;
  rec.mean_latency_s = r.mean_latency_s;
  rec.mean_leaf_power_w = r.mean_leaf_power_w;
  rec.min_life_days = r.min_life_days;
  rec.perpetual_fraction = r.perpetual_fraction;
  rec.hub_power_w = r.report.hub_power_w;
  rec.goodput_bps = r.report.aggregate_goodput_bps;
  rec.bus_utilization = r.report.bus_utilization;
  rec.elapsed_s = r.report.elapsed_s;
  return rec;
}

double percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  // quantile_sorted (stream_sink.hpp) is the shared interpolation rule: this
  // function, the exact regime of OnlineQuantile and the summary fold all go
  // through the same code, so "exact" means bit-identical everywhere.
  return quantile_sorted(samples, q);
}

Fleet::Fleet(FleetAxes axes) : axes_(std::move(axes)) {
  IOB_EXPECTS(!axes_.node_counts.empty(), "node_counts axis is empty");
  IOB_EXPECTS(!axes_.macs.empty(), "macs axis is empty");
  IOB_EXPECTS(!axes_.mixes.empty(), "mixes axis is empty");
  IOB_EXPECTS(!axes_.harvests.empty(), "harvests axis is empty");
  IOB_EXPECTS(!axes_.buses.empty(), "buses axis is empty");
  IOB_EXPECTS(!axes_.batch_windows.empty(), "batch_windows axis is empty");
  IOB_EXPECTS(!axes_.precisions.empty(), "precisions axis is empty");
  IOB_EXPECTS(!axes_.faults.empty(), "faults axis is empty");
  IOB_EXPECTS(!axes_.splits.empty(), "splits axis is empty");
  IOB_EXPECTS(!axes_.sir_levels.empty(), "sir_levels axis is empty");
  IOB_EXPECTS(!axes_.motion.empty(), "motion axis is empty");
  IOB_EXPECTS(!axes_.seeds.empty(), "seeds axis is empty");
  for (const SirLevelVariant& iv : axes_.sir_levels) {
    IOB_EXPECTS(iv.level.duty_cycle >= 0.0 && iv.level.duty_cycle <= 1.0,
                "aggressor duty cycle must be in [0, 1]");
  }
  for (const SplitVariant& sv : axes_.splits) {
    if (!sv.enabled) continue;
    IOB_EXPECTS(sv.leaf_fraction >= 0.0 && sv.leaf_fraction <= 1.0,
                "split leaf fraction must be in [0, 1]");
    IOB_EXPECTS(sv.leaf_energy_per_mac_j >= 0.0, "leaf energy per MAC must be non-negative");
    IOB_EXPECTS(sv.mission_time_s > 0.0, "split mission time must be positive");
  }
  IOB_EXPECTS(axes_.duration_s > 0, "duration must be positive");
  for (const int n : axes_.node_counts) {
    IOB_EXPECTS(n >= 1, "node counts must be >= 1");
  }
  for (const auto& m : axes_.mixes) {
    IOB_EXPECTS(!m.classes.empty(), "a mix needs at least one node class");
    for (const auto& c : m.classes) IOB_EXPECTS(c.share >= 1, "class share must be >= 1");
  }
}

FleetPoint Fleet::point_at(std::size_t index) const {
  IOB_EXPECTS(index < size(), "fleet point index out of range");
  // Mixed-radix decode of the order contract (node_counts outermost ...
  // seeds innermost — file comment): peel the innermost axis first by
  // dividing out its size. Identical to expand()[index] by construction,
  // without materializing the grid.
  std::size_t rem = index;
  const auto next_digit = [&rem](std::size_t axis_size) {
    const std::size_t v = rem % axis_size;
    rem /= axis_size;
    return v;
  };
  const std::size_t si = next_digit(axes_.seeds.size());
  const std::size_t oi = next_digit(axes_.motion.size());
  const std::size_t ii = next_digit(axes_.sir_levels.size());
  const std::size_t li = next_digit(axes_.splits.size());
  const std::size_t fi = next_digit(axes_.faults.size());
  const std::size_t pi = next_digit(axes_.precisions.size());
  const std::size_t wi = next_digit(axes_.batch_windows.size());
  const std::size_t bi = next_digit(axes_.buses.size());
  const std::size_t hi = next_digit(axes_.harvests.size());
  const std::size_t xi = next_digit(axes_.mixes.size());
  const std::size_t mi = next_digit(axes_.macs.size());
  const std::size_t ni = next_digit(axes_.node_counts.size());

  FleetPoint p;
  p.index = index;
  p.coord = {ni, mi, xi, hi, bi, wi, pi, si, fi, li, ii, oi};
  p.node_count = axes_.node_counts[ni];
  p.mac = axes_.macs[mi];
  p.mix = axes_.mixes[xi];
  p.harvest = axes_.harvests[hi];
  p.bus = axes_.buses[bi];
  p.batch_window = axes_.batch_windows[wi];
  p.hub_engine_threads = axes_.hub_engine_threads;
  p.precision = axes_.precisions[pi];
  p.fault = axes_.faults[fi];
  p.split = axes_.splits[li];
  p.sir = axes_.sir_levels[ii];
  p.motion = axes_.motion[oi];
  p.seed = SweepRunner::point_seed(axes_.seeds[si], p.index);
  p.duration_s = axes_.duration_s;
  return p;
}

std::vector<FleetPoint> Fleet::expand() const {
  std::vector<FleetPoint> points;
  const std::size_t n = size();
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) points.push_back(point_at(i));
  return points;
}

std::vector<FleetPointResult> Fleet::run(const SweepRunner& runner) const {
  const std::vector<FleetPoint> points = expand();
  return runner.map<FleetPointResult>(
      points.size(), [&](std::size_t i) { return run_fleet_point(points[i]); });
}

namespace {

std::array<std::size_t, kAxisCount> axis_sizes_of(const FleetAxes& axes) {
  return {axes.node_counts.size(), axes.macs.size(),          axes.mixes.size(),
          axes.harvests.size(),    axes.buses.size(),         axes.batch_windows.size(),
          axes.precisions.size(),  axes.seeds.size(),         axes.faults.size(),
          axes.splits.size(),      axes.sir_levels.size(),    axes.motion.size()};
}

std::string axis_value_label(const FleetAxes& axes, std::size_t a, std::size_t v) {
  switch (static_cast<FleetAxis>(a)) {
    case kAxisNodeCount: return "n=" + std::to_string(axes.node_counts[v]);
    case kAxisMac: return axes.macs[v].label;
    case kAxisMix: return axes.mixes[v].label;
    case kAxisHarvest: return axes.harvests[v].label;
    case kAxisBus: return to_string(axes.buses[v]);
    case kAxisBatch:
      return axes.batch_windows[v] == 0 ? "per-frame"
                                        : "batch-w" + std::to_string(axes.batch_windows[v]);
    case kAxisPrecision: return nn::to_string(axes.precisions[v]);
    case kAxisSeed: return "seed=" + std::to_string(axes.seeds[v]);
    case kAxisFault: return to_string(axes.faults[v]);
    case kAxisSplit: return axes.splits[v].label;
    case kAxisSir: return axes.sir_levels[v].label;
    case kAxisMotion: return axes.motion[v].label;
    default: return "?";
  }
}

/// Online per-cell accumulator. Means are running sums divided once at
/// finish — folded in flat-index order they produce the same bits as the
/// historical collect-then-divide; lifetime percentiles fold through
/// `OnlineQuantile` (bit-identical to the sorted-vector path up to 512
/// samples, within its documented 1% bound beyond).
struct CellAccum {
  OnlineQuantile life;
  double perpetual_nodes = 0.0;
  double total_nodes = 0.0;
  double goodput = 0.0;
  double drop = 0.0;
  double latency = 0.0;
  double util = 0.0;
  double avail = 0.0;
  std::size_t points = 0;

  void fold(const FleetPointResult& r) {
    for (const auto& n : r.report.nodes) {
      life.add(n.projected_life_days);
      if (n.perpetual) perpetual_nodes += 1.0;
      total_nodes += 1.0;
    }
    goodput += r.report.aggregate_goodput_bps;
    drop += r.drop_rate;
    latency += r.mean_latency_s;
    util += r.report.bus_utilization;
    avail += r.mean_availability;
    ++points;
  }

  [[nodiscard]] AxisCell finish(std::string label) const {
    AxisCell cell;
    cell.label = std::move(label);
    cell.points = points;
    if (points == 0) return cell;
    cell.life_p10_days = life.quantile(0.10);
    cell.life_p50_days = life.quantile(0.50);
    cell.life_p90_days = life.quantile(0.90);
    cell.life_approx = life.approximate();
    const double np = static_cast<double>(points);
    cell.perpetual_fraction = total_nodes > 0 ? perpetual_nodes / total_nodes : 0.0;
    cell.mean_goodput_bps = goodput / np;
    cell.mean_drop_rate = drop / np;
    cell.mean_latency_s = latency / np;
    cell.mean_bus_utilization = util / np;
    cell.mean_availability = avail / np;
    return cell;
  }
};

/// One-pass marginal-summary fold: one overall cell plus one cell per axis
/// value, every cell updated as each result streams by in flat-index order.
/// `Fleet::summarize` and `Fleet::run_streaming` share this fold, which is
/// why a streaming summary equals the in-memory one bit for bit.
class FleetFold {
 public:
  /// Per-value marginals stop being a readable table (and start costing an
  /// accumulator per value) past this many values on one axis. Above it the
  /// axis keeps its slot in `FleetSummary::axes` but with no cells — the
  /// population-scale seed axis of a streaming grid is a replicate axis, and
  /// its per-replicate marginal is noise (docs/scaling.md). Every
  /// pre-streaming grid in the repo sits far below the cap, so historical
  /// summaries are unchanged.
  static constexpr std::size_t kMaxMarginalCells = 64;

  explicit FleetFold(const FleetAxes& axes) : axes_(&axes) {
    const std::array<std::size_t, kAxisCount> sizes = axis_sizes_of(axes);
    for (std::size_t a = 0; a < kAxisCount; ++a) {
      if (sizes[a] <= kMaxMarginalCells) cells_[a].resize(sizes[a]);
    }
  }

  void add(const FleetPointResult& r) {
    overall_.fold(r);
    for (std::size_t a = 0; a < kAxisCount; ++a) {
      if (r.coord[a] < cells_[a].size()) cells_[a][r.coord[a]].fold(r);
    }
    ++total_;
  }

  [[nodiscard]] FleetSummary finish() const {
    FleetSummary summary;
    summary.total_points = total_;
    summary.overall = overall_.finish("all");
    for (std::size_t a = 0; a < kAxisCount; ++a) {
      std::vector<AxisCell> out;
      out.reserve(cells_[a].size());
      for (std::size_t v = 0; v < cells_[a].size(); ++v) {
        out.push_back(cells_[a][v].finish(axis_value_label(*axes_, a, v)));
      }
      summary.axes.emplace_back(to_string(static_cast<FleetAxis>(a)), std::move(out));
    }
    return summary;
  }

 private:
  const FleetAxes* axes_;
  CellAccum overall_;
  std::array<std::vector<CellAccum>, kAxisCount> cells_;
  std::size_t total_ = 0;
};

}  // namespace

FleetSummary Fleet::summarize(const std::vector<FleetPointResult>& results) const {
  FleetFold fold(axes_);
  for (const auto& r : results) fold.add(r);
  return fold.finish();
}

FleetStreamResult Fleet::run_streaming(const SweepRunner& runner,
                                       const FleetStreamConfig& cfg) const {
  const std::size_t n = size();
  const std::size_t batch = std::max<std::size_t>(std::size_t{1}, cfg.batch_points);
  std::unique_ptr<StreamSink> sink;
  if (cfg.spill) {
    sink = std::make_unique<StreamSink>(*cfg.spill);
    if (cfg.spill->format == StreamFormat::kCsv) sink->write_header(fleet_csv_header());
  }
  FleetFold fold(axes_);

  const auto launch = [&](std::size_t begin, std::size_t end) {
    return runner.map_async<FleetPointResult>(
        end - begin,
        [this, begin](std::size_t i) { return run_fleet_point(point_at(begin + i)); });
  };

  FleetStreamResult out;
  out.points = n;
  std::size_t inflight_end = std::min(batch, n);
  BatchFuture<FleetPointResult> inflight = launch(0, inflight_end);
  std::size_t begin = 0;
  while (begin < n) {
    std::vector<FleetPointResult> results = inflight.get();
    const std::size_t next_begin = inflight_end;
    if (next_begin < n) {
      // Double buffering: batch k+1 executes on the pool while this thread
      // folds and spills batch k. One batch in flight at a time (the
      // map_async contract), so peak memory is two batches of results.
      inflight_end = std::min(next_begin + batch, n);
      inflight = launch(next_begin, inflight_end);
    }
    // Batches arrive in flat-index order and each batch is internally
    // index-ordered (map's merge), so the fold sequence and the spilled
    // rows are identical to a serial in-memory run at any thread count.
    for (const FleetPointResult& r : results) {
      fold.add(r);
      if (sink) {
        if (cfg.spill->format == StreamFormat::kCsv) {
          sink->append_row(fleet_result_row(r));
        } else {
          const FleetStreamRecord rec = fleet_stream_record(r);
          sink->append(&rec, sizeof(rec));
        }
      }
    }
    begin = next_begin;
  }
  if (sink) {
    sink->finish();
    out.spilled_rows = sink->rows();
    out.spilled_bytes = sink->bytes();
    out.spill_shards = sink->shards();
  }
  out.summary = fold.finish();
  return out;
}

std::string FleetSummary::to_string() const {
  std::string out;
  out += "fleet: " + std::to_string(total_points) + " points\n";
  bool any_approx = false;
  const auto render_axis = [&](const std::string& name, const std::vector<AxisCell>& cells) {
    common::Table t({name, "points", "life p10", "life p50", "life p90", "perpetual",
                     "mean goodput", "drop rate", "mean latency", "bus util", "avail"});
    for (const AxisCell& c : cells) {
      // "~" marks online-sketch estimates (cells past the exact-sample
      // limit); unmarked lifetimes are exact.
      const std::string mark = c.life_approx ? "~" : "";
      if (c.life_approx) any_approx = true;
      t.add_row({c.label, std::to_string(c.points), mark + life_str(c.life_p10_days),
                 mark + life_str(c.life_p50_days), mark + life_str(c.life_p90_days),
                 common::fixed(c.perpetual_fraction * 100.0, 1) + "%",
                 common::si_format(c.mean_goodput_bps, "b/s"),
                 common::fixed(c.mean_drop_rate * 100.0, 2) + "%",
                 common::si_format(c.mean_latency_s, "s"),
                 common::fixed(c.mean_bus_utilization * 100.0, 1) + "%",
                 common::fixed(c.mean_availability * 100.0, 1) + "%"});
    }
    out += t.to_string();
  };
  render_axis("overall", {overall});
  for (const auto& [name, cells] : axes) {
    if (cells.size() < 2) continue;  // marginal over a singleton axis = overall
    out += "\n";
    render_axis(name, cells);
  }
  if (any_approx) {
    out += "\n~ = online-quantile estimate, rel. error <= " +
           common::fixed(OnlineQuantile::kRelativeError * 100.0, 0) +
           "% (zero/perpetual bands exact; docs/scaling.md)\n";
  }
  return out;
}

}  // namespace iob::core
