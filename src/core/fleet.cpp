#include "core/fleet.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <type_traits>
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

/// Append one CSV value: a double round-trip exact as printf's "%.17g"
/// (`to_chars(general, 17)` is specified to produce those bytes; NaN is
/// always written "nan" whatever its sign bit), an integer in decimal, a
/// flag as 0/1, a string as is, and the coord as its digits joined by ':'.
template <class V>
void put(std::string& out, const V& v) {
  if constexpr (std::is_same_v<V, bool>) {
    out += v ? '1' : '0';
  } else if constexpr (std::is_floating_point_v<V>) {
    if (std::isnan(v)) {
      out += "nan";
      return;
    }
    // A whole value below 1e15 in magnitude has at most 15 digits, so
    // "%.17g" prints exactly its integer digits; the integer conversion
    // writes the same bytes for a fraction of the cost. The sign goes
    // first on its own, which keeps -0 as "-0".
    const V mag = std::fabs(v);
    if (mag < V(1e15)) {
      const auto whole = static_cast<std::uint64_t>(mag);
      if (static_cast<V>(whole) == mag) {
        if (std::signbit(v)) out += '-';
        put(out, whole);
        return;
      }
    }
    char buf[32];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17).ptr);
  } else if constexpr (std::is_integral_v<V>) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  } else if constexpr (std::is_same_v<V, std::string>) {
    out += v;
  } else {
    for (std::size_t a = 0; a < v.size(); ++a) {
      if (a > 0) out += ':';
      put(out, v[a]);
    }
  }
}

/// Human formatting for a possibly-infinite lifetime (days).
std::string life_str(double days) {
  if (std::isinf(days)) return "perpetual";
  return common::fixed(days, 1) + " d";
}

/// The axis table: every axis declared once, in `FleetAxis` order (the
/// nesting order, seeds innermost). Each line names the axis's index, its
/// summary name, its values in `FleetAxes` and the `FleetPoint` field a
/// value lands in. Size, validation, `point_at`'s decode and the summary's
/// names and labels all walk it.
template <class F>
void for_each_axis(const FleetAxes& axes, F&& f) {
  f(kAxisNodeCount, "node count", axes.node_counts, &FleetPoint::node_count);
  f(kAxisMac, "mac", axes.macs, &FleetPoint::mac);
  f(kAxisMix, "node mix", axes.mixes, &FleetPoint::mix);
  f(kAxisHarvest, "harvesting", axes.harvests, &FleetPoint::harvest);
  f(kAxisBus, "bus", axes.buses, &FleetPoint::bus);
  f(kAxisBatch, "batch window", axes.batch_windows, &FleetPoint::batch_window);
  f(kAxisPrecision, "precision", axes.precisions, &FleetPoint::precision);
  f(kAxisFault, "faults", axes.faults, &FleetPoint::fault);
  f(kAxisSplit, "split", axes.splits, &FleetPoint::split);
  f(kAxisSir, "interference", axes.sir_levels, &FleetPoint::sir);
  f(kAxisMotion, "motion", axes.motion, &FleetPoint::motion);
  f(kAxisSeed, "seed", axes.seeds, &FleetPoint::seed);
}

std::array<std::size_t, kAxisCount> axis_sizes(const FleetAxes& axes) {
  std::array<std::size_t, kAxisCount> sizes{};
  for_each_axis(axes, [&](FleetAxis a, const char*, const auto& values, auto) {
    sizes[a] = values.size();
  });
  return sizes;
}

/// Summary label of one axis value.
std::string label_of(int node_count) { return "n=" + std::to_string(node_count); }
std::string label_of(unsigned batch_window) {
  return batch_window == 0 ? "per-frame" : "batch-w" + std::to_string(batch_window);
}
std::string label_of(BusKind bus) { return to_string(bus); }
std::string label_of(nn::Precision precision) { return nn::to_string(precision); }
std::string label_of(FaultVariant fault) { return to_string(fault); }
std::string label_of(std::uint64_t seed) { return "seed=" + std::to_string(seed); }
template <class V>
std::string label_of(const V& variant) {
  return variant.label;
}

/// Per-value preconditions; axes without one accept any value.
void check_value(int node_count) { IOB_EXPECTS(node_count >= 1, "node counts must be >= 1"); }
void check_value(const NodeMix& mix) {
  IOB_EXPECTS(!mix.classes.empty(), "a mix needs at least one node class");
  for (const auto& c : mix.classes) IOB_EXPECTS(c.share >= 1, "class share must be >= 1");
}
void check_value(const SplitVariant& sv) {
  if (!sv.enabled) return;
  IOB_EXPECTS(sv.leaf_fraction >= 0.0 && sv.leaf_fraction <= 1.0,
              "split leaf fraction must be in [0, 1]");
  IOB_EXPECTS(sv.leaf_energy_per_mac_j >= 0.0, "leaf energy per MAC must be non-negative");
  IOB_EXPECTS(sv.mission_time_s > 0.0, "split mission time must be positive");
}
void check_value(const SirLevelVariant& iv) {
  IOB_EXPECTS(iv.level.duty_cycle >= 0.0 && iv.level.duty_cycle <= 1.0,
              "aggressor duty cycle must be in [0, 1]");
}
template <class V>
void check_value(const V&) {}

/// The per-point CSV columns, in order, one line each: a member of
/// `FleetPointResult` or of its `NetworkReport`.
template <class F>
void for_each_point_column(F&& f) {
  f("index", &FleetPointResult::index);
  f("coord", &FleetPointResult::coord);
  f("drop_rate", &FleetPointResult::drop_rate);
  f("mean_latency_s", &FleetPointResult::mean_latency_s);
  f("mean_leaf_power_w", &FleetPointResult::mean_leaf_power_w);
  f("min_life_days", &FleetPointResult::min_life_days);
  f("perpetual_fraction", &FleetPointResult::perpetual_fraction);
  f("hub_power_w", &net::NetworkReport::hub_power_w);
  f("goodput_bps", &net::NetworkReport::aggregate_goodput_bps);
  f("bus_utilization", &net::NetworkReport::bus_utilization);
  f("elapsed_s", &net::NetworkReport::elapsed_s);
  f("hub_crashes", &net::NetworkReport::hub_crashes);
  f("hub_downtime_s", &net::NetworkReport::hub_downtime_s);
  f("hub_availability", &net::NetworkReport::hub_availability);
}

template <class V>
const V& field_of(const FleetPointResult& r, V FleetPointResult::*m) {
  return r.*m;
}
template <class V>
const V& field_of(const FleetPointResult& r, V net::NetworkReport::*m) {
  return r.report.*m;
}

/// The per-node CSV sub-fields, in order, one line each.
template <class F>
void for_each_node_column(F&& f) {
  using N = net::NodeReport;
  f("name", &N::name);
  f("average_power_w", &N::average_power_w);
  f("comm_power_w", &N::comm_power_w);
  f("projected_life_days", &N::projected_life_days);
  f("perpetual", &N::perpetual);
  f("frames_delivered", &N::frames_delivered);
  f("frames_dropped", &N::frames_dropped);
  f("mean_latency_s", &N::mean_latency_s);
  f("max_latency_s", &N::max_latency_s);
  f("reboots", &N::reboots);
  f("downtime_s", &N::downtime_s);
  f("availability", &N::availability);
  f("dropped_arq", &N::dropped_arq);
  f("dropped_fault", &N::dropped_fault);
  f("dropped_overflow", &N::dropped_overflow);
  f("dropped_overflow_clean", &N::dropped_overflow_clean);
  f("dropped_shed", &N::dropped_shed);
  f("split_at", &N::split_at);
  f("split_inferences", &N::split_inferences);
  f("split_activation_bytes", &N::split_activation_bytes);
  f("split_compute_energy_j", &N::split_compute_energy_j);
  f("split_repartitions", &N::split_repartitions);
}

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

/// The per-point scalars `CellAccum::fold` reads besides the lifetimes.
struct FoldScalars {
  std::size_t perpetual_nodes = 0;
  double goodput_bps = 0.0;
  double drop_rate = 0.0;
  double latency_s = 0.0;
  double bus_utilization = 0.0;
  double availability = 0.0;
};

FoldScalars fold_scalars(const FleetPointResult& r) {
  FoldScalars s;
  for (const auto& n : r.report.nodes) s.perpetual_nodes += n.perpetual ? 1 : 0;
  s.goodput_bps = r.report.aggregate_goodput_bps;
  s.drop_rate = r.drop_rate;
  s.latency_s = r.mean_latency_s;
  s.bus_utilization = r.report.bus_utilization;
  s.availability = r.mean_availability;
  return s;
}

/// Everything `CellAccum::fold` reads of one point, without owning it: each
/// node's lifetime (days), `stride` bytes apart from `first`, and the
/// scalars. `Fleet::summarize` builds it over a result's node reports, so
/// no lifetime is copied; the streamed pass builds it over the lifetimes a
/// worker copied out before dropping the report. Both fold the same values
/// in the same order.
struct FoldView {
  const unsigned char* first = nullptr;
  std::size_t stride = 0;
  std::size_t nodes = 0;
  FoldScalars scalars{};

  [[nodiscard]] double life_days(std::size_t k) const {
    double d = 0.0;
    std::memcpy(&d, first + k * stride, sizeof d);
    return d;
  }
};

FoldView fold_view(const FleetPointResult& r) {
  const std::vector<net::NodeReport>& nodes = r.report.nodes;
  FoldView v;
  v.first = nodes.empty() ? nullptr
                          : reinterpret_cast<const unsigned char*>(&nodes[0].projected_life_days);
  v.stride = sizeof(net::NodeReport);
  v.nodes = nodes.size();
  v.scalars = fold_scalars(r);
  return v;
}

/// One point of a streamed batch, finished by the worker that ran it: its
/// spill bytes and the fold's inputs. The worker drops the report, so a
/// batch slot holds only these.
struct StreamedPoint {
  std::array<std::size_t, kAxisCount> coord{};
  std::string spill;         ///< CSV row or `FleetStreamRecord` bytes; empty without spill
  std::vector<double> life;  ///< each node's lifetime (days)
  FoldScalars scalars{};

  [[nodiscard]] FoldView fold_view() const {
    return {reinterpret_cast<const unsigned char*>(life.data()), sizeof(double), life.size(),
            scalars};
  }
};

StreamedPoint finish_point(const FleetPointResult& r, const std::optional<StreamFormat>& spill) {
  StreamedPoint p;
  p.coord = r.coord;
  if (spill == StreamFormat::kCsv) {
    p.spill = fleet_result_row(r);
  } else if (spill == StreamFormat::kBinary) {
    const FleetStreamRecord rec = fleet_stream_record(r);
    p.spill.assign(reinterpret_cast<const char*>(&rec), sizeof(rec));
  }
  p.life.reserve(r.report.nodes.size());
  for (const auto& n : r.report.nodes) p.life.push_back(n.projected_life_days);
  p.scalars = fold_scalars(r);
  return p;
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

  void fold(const FoldView& p) {
    for (std::size_t k = 0; k < p.nodes; ++k) life.add(p.life_days(k));
    perpetual_nodes += static_cast<double>(p.scalars.perpetual_nodes);
    total_nodes += static_cast<double>(p.nodes);
    goodput += p.scalars.goodput_bps;
    drop += p.scalars.drop_rate;
    latency += p.scalars.latency_s;
    util += p.scalars.bus_utilization;
    avail += p.scalars.availability;
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
/// why a streaming summary equals the in-memory one bit for bit. A
/// single-valued axis folds no cell of its own: every point lands in it, so
/// its one cell is `overall` under the axis value's label.
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
    const std::array<std::size_t, kAxisCount> sizes = axis_sizes(axes);
    for (std::size_t a = 0; a < kAxisCount; ++a) {
      if (sizes[a] >= 2 && sizes[a] <= kMaxMarginalCells) cells_[a].resize(sizes[a]);
    }
  }

  void add(const std::array<std::size_t, kAxisCount>& coord, const FoldView& p) {
    overall_.fold(p);
    for (std::size_t a = 0; a < kAxisCount; ++a) {
      if (coord[a] < cells_[a].size()) cells_[a][coord[a]].fold(p);
    }
    ++total_;
  }

  [[nodiscard]] FleetSummary finish() const {
    FleetSummary summary;
    summary.total_points = total_;
    summary.overall = overall_.finish("all");
    for_each_axis(*axes_, [&](FleetAxis a, const char* name, const auto& values, auto) {
      std::vector<AxisCell> out;
      if (values.size() == 1) {
        out.push_back(overall_.finish(label_of(values[0])));
      } else {
        out.reserve(cells_[a].size());
        for (std::size_t v = 0; v < cells_[a].size(); ++v) {
          out.push_back(cells_[a][v].finish(label_of(values[v])));
        }
      }
      summary.axes.emplace_back(name, std::move(out));
    });
    return summary;
  }

 private:
  const FleetAxes* axes_;
  CellAccum overall_;
  std::array<std::vector<CellAccum>, kAxisCount> cells_;
  std::size_t total_ = 0;
};

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
  std::size_t n = 1;
  for (const std::size_t s : axis_sizes(*this)) n *= s;
  return n;
}

std::unique_ptr<net::NetworkSim> build_fleet_point(const FleetPoint& p) {
  IOB_EXPECTS(p.node_count >= 1, "fleet point needs at least one node");
  net::NetworkConfig nc;
  nc.seed = p.seed;
  nc.mac = p.mac.config;
  nc.hub.batch_window = p.batch_window;
  nc.faults = make_fault_plan(p.fault);
  // Channel hostility axes: an engaged SIR level or motion chain installs a
  // `comm::ChannelDynamics` overlay; the clean/off defaults leave it
  // disengaged.
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
  std::string out;
  char sep = '\0';
  for_each_point_column([&](const char* name, auto) {
    if (sep != '\0') out += sep;
    sep = ',';
    out += name;
  });
  for_each_node_column([&](const char* name, auto) {
    out += sep;
    sep = ':';
    out += name;
  });
  out += '\n';
  return out;
}

std::string fleet_result_row(const FleetPointResult& r) {
  std::string out;
  out.reserve(256 + 160 * r.report.nodes.size());
  char sep = '\0';
  for_each_point_column([&](const char*, auto m) {
    if (sep != '\0') out += sep;
    sep = ',';
    put(out, field_of(r, m));
  });
  for (const net::NodeReport& n : r.report.nodes) {
    sep = ',';
    for_each_node_column([&](const char*, auto m) {
      out += sep;
      sep = ':';
      put(out, n.*m);
    });
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
  IOB_EXPECTS(axes_.duration_s > 0, "duration must be positive");
  std::size_t next = 0;
  for_each_axis(axes_, [&next](FleetAxis a, const char* name, const auto& values, auto) {
    IOB_EXPECTS(a == next++, "axis table out of FleetAxis order");
    IOB_EXPECTS(!values.empty(), std::string(name) + " axis is empty");
    for (const auto& v : values) check_value(v);
  });
}

FleetPoint Fleet::point_at(std::size_t index) const {
  IOB_EXPECTS(index < size(), "fleet point index out of range");
  const std::array<std::size_t, kAxisCount> sizes = axis_sizes(axes_);
  FleetPoint p;
  p.index = index;
  // Mixed-radix decode of the order contract: the last digit (seeds) varies
  // fastest. Identical to expand()[index] by construction, without
  // materializing the grid.
  std::size_t rem = index;
  for (std::size_t a = kAxisCount; a-- > 0;) {
    p.coord[a] = rem % sizes[a];
    rem /= sizes[a];
  }
  for_each_axis(axes_, [&p](FleetAxis a, const char*, const auto& values, auto field) {
    p.*field = values[p.coord[a]];
  });
  p.seed = SweepRunner::point_seed(p.seed, p.index);
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

FleetSummary Fleet::summarize(const std::vector<FleetPointResult>& results) const {
  FleetFold fold(axes_);
  for (const auto& r : results) fold.add(r.coord, fold_view(r));
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

  // Each worker finishes the points it runs: it serializes the spill bytes
  // and copies out the fold's inputs, then drops the report. This thread
  // only folds and appends.
  std::optional<StreamFormat> format;
  if (cfg.spill) format = cfg.spill->format;
  const auto launch = [&](std::size_t begin, std::size_t end) {
    return runner.map_async<StreamedPoint>(end - begin, [this, begin, format](std::size_t i) {
      return finish_point(run_fleet_point(point_at(begin + i)), format);
    });
  };

  FleetStreamResult out;
  out.points = n;
  std::size_t inflight_end = std::min(batch, n);
  BatchFuture<StreamedPoint> inflight = launch(0, inflight_end);
  std::size_t begin = 0;
  while (begin < n) {
    const std::vector<StreamedPoint> points = inflight.get();
    const std::size_t next_begin = inflight_end;
    if (next_begin < n) {
      // Double buffering: batch k+1 executes on the pool while this thread
      // folds and spills batch k. One batch in flight at a time (the
      // map_async contract), so peak memory is two batches of slots.
      inflight_end = std::min(next_begin + batch, n);
      inflight = launch(next_begin, inflight_end);
    }
    // Batches arrive in flat-index order and each batch is internally
    // index-ordered (map's merge), so the fold sequence and the spilled
    // rows are identical to a serial in-memory run at any thread count.
    for (const StreamedPoint& p : points) {
      fold.add(p.coord, p.fold_view());
      if (sink) sink->append(p.spill.data(), p.spill.size());
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
