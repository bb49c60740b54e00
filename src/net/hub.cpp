#include "net/hub.hpp"

#include <time.h>

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "common/expect.hpp"
#include "nn/model.hpp"
#include "nn/quantize.hpp"

namespace iob::net {

namespace {

/// CPU time consumed by the calling thread. Metering kernels by thread CPU
/// time instead of wall time keeps preemption on an oversubscribed host out
/// of `kernel_time_s` and the energy derived from it.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Analytic MAC-energy factor for a session's precision. 1.0 for f32 (the
/// multiply is exact, keeping the pre-precision ledger bit-identical).
double mac_scale(const HubConfig& hub, const SessionConfig& cfg) {
  return cfg.precision == nn::Precision::kInt8 ? hub.int8_mac_energy_scale : 1.0;
}

/// Index into the per-precision metering arrays.
std::size_t prec_idx(nn::Precision p) { return p == nn::Precision::kInt8 ? 1 : 0; }

/// Group key of a session: shared model tag, or a per-stream private
/// group. The "~" prefix keeps private keys out of any user model
/// namespace. Split sessions group per boundary — members of one batched
/// pass must resume at the same layer. Unsplit sessions keep the plain
/// model tag, byte-identical to the pre-split grouping. The single
/// definition behind add_session's group bookkeeping and the
/// adaptive-flush group lookup.
std::string group_key(const SessionConfig& cfg) {
  if (cfg.model.empty()) return "~stream:" + cfg.stream;
  if (cfg.split_layers == 0) return cfg.model;
  return cfg.model + "~split:" + std::to_string(cfg.split_layers);
}

/// Per-sample element count of the tensor a session's metered pass feeds
/// in: the model input, or the boundary activation at `split_layers`.
std::int64_t pass_input_elems(const nn::Model& net, std::size_t first_layer) {
  return first_layer == 0 ? nn::shape_elems(net.input_shape())
                          : nn::shape_elems(net.profiles()[first_layer - 1].output_shape);
}

}  // namespace

Hub::Hub(sim::Simulator& sim, comm::TdmaBus& bus, HubConfig config)
    : sim_(sim), bus_(bus), config_(config) {
  IOB_EXPECTS(config_.energy_per_mac_j >= 0, "energy per MAC must be non-negative");
  IOB_EXPECTS(config_.energy_per_weight_byte_j >= 0,
              "energy per weight byte must be non-negative");
  IOB_EXPECTS(config_.compute_power_w >= 0, "compute power must be non-negative");
  IOB_EXPECTS(config_.int8_mac_energy_scale >= 0, "int8 mac scale must be non-negative");
  bus_.set_delivery_handler(
      [this](const comm::Frame& f, sim::Time t) { on_frame(f, t); });
  if (config_.batch_window > 0) {
    bus_.set_superframe_end_handler([this](sim::Time t) { on_superframe_end(t); });
  }
}

void Hub::add_session(SessionConfig config) {
  IOB_EXPECTS(!config.stream.empty(), "session stream tag must be non-empty");
  IOB_EXPECTS(config.bytes_per_inference > 0, "bytes per inference must be positive");
  // Quantize-at-load: int8 metered sessions get their QuantizedModel here,
  // never inside the timed execute path. Analytic-only runs (the
  // deterministic sweeps) skip the cost entirely.
  if (config_.execute_and_meter && config.net != nullptr &&
      config.precision == nn::Precision::kInt8 &&
      qmodels_.find(config.net) == qmodels_.end()) {
    qmodels_.emplace(config.net, std::make_unique<nn::QuantizedModel>(*config.net));
  }
  if (config.net != nullptr) {
    IOB_EXPECTS(config.split_layers <= config.net->layer_count(),
                "session split point out of range");
    // Int8 metered resumption requires a feasible boundary: the quantized
    // lowering cannot restart inside a fused conv+relu pair. Adaptive
    // deployments must restrict their candidate splits accordingly.
    if (config_.execute_and_meter && config.precision == nn::Precision::kInt8 &&
        config.split_layers > 0) {
      IOB_EXPECTS(qmodels_.at(config.net)->feasible_boundary(config.split_layers),
                  "int8 metered session split must be a feasible boundary");
    }
  }
  const std::string group = group_key(config);
  // Resolve (or create) the session slot. Stats and staging survive
  // re-registration — only the config is replaced, exactly the old
  // "default-construct absent map entries" contract.
  std::size_t slot;
  const auto idx_it = session_index_.find(config.stream);
  if (idx_it != session_index_.end()) {
    slot = idx_it->second;
    sessions_[slot].cfg = std::move(config);
  } else {
    // Reserve ahead of the insert: the delivery hot path only probes this
    // map, so growing it here keeps steady-state delivery rehash-free.
    session_index_.reserve(sessions_.size() + 1);
    slot = sessions_.size();
    Session s;
    s.cfg = std::move(config);
    session_index_.emplace(s.cfg.stream, slot);
    sessions_.push_back(std::move(s));
  }
  // Re-registering a stream (possibly under a new model tag) must leave it
  // in exactly one group, or flush/energy accounting would double-count.
  for (auto& [g, members] : groups_) {
    if (g == group) continue;
    members.erase(std::remove(members.begin(), members.end(), slot), members.end());
  }
  groups_.erase(std::remove_if(groups_.begin(), groups_.end(),
                               [](const auto& g) { return g.second.empty(); }),
                groups_.end());
  auto it = std::find_if(groups_.begin(), groups_.end(),
                         [&](const auto& g) { return g.first == group; });
  if (it == groups_.end()) {
    groups_.emplace_back(group, std::vector<std::size_t>{slot});
  } else if (std::find(it->second.begin(), it->second.end(), slot) == it->second.end()) {
    it->second.push_back(slot);
  }
  // Group vector indices may have shifted (empty-group compaction above):
  // rebuild the slot -> group map. add_session is setup, not hot path.
  group_of_.assign(sessions_.size(), 0);
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    for (const std::size_t member : groups_[g].second) group_of_[member] = g;
  }
  flush_.resize(groups_.size());
}

void Hub::on_frame(const comm::Frame& frame, sim::Time delivered_at) {
  ++frames_received_;
  bytes_received_ += frame.payload_bytes;

  // The one hash probe of the delivery hot path: stream tag -> slot. All
  // per-session state (config, stats, staging) is co-located in the slot.
  const auto idx_it = session_index_.find(frame.stream);
  if (idx_it == session_index_.end()) return;
  const std::size_t slot = idx_it->second;
  Session& sess = sessions_[slot];
  const SessionConfig& cfg = sess.cfg;
  SessionStats& st = sess.stats;
  st.bytes_in += frame.payload_bytes;

  Staged& staged = sess.staged;
  staged.pending_bytes += frame.payload_bytes;
  if (config_.batch_window > 0) {
    // Batched path: stage until the superframe flush — or, with an
    // adaptive target, flush the window early the moment this group's
    // staged batch reaches it (bounding queued latency under bursts).
    staged.frame_times.push_back(delivered_at);
    if (config_.max_staged_batch > 0 &&
        group_staged_inferences(slot) >= config_.max_staged_batch) {
      superframes_since_flush_ = 0;
      flush_batches(delivered_at);
    }
    return;
  }

  // Per-frame path: run as soon as a window fills, re-streaming weights for
  // every inference (the cost batching amortizes).
  while (staged.pending_bytes >= cfg.bytes_per_inference) {
    staged.pending_bytes -= cfg.bytes_per_inference;
    ++st.inferences;
    // Single-expression add: with weight_bytes == 0 the sum is bit-identical
    // to the historical macs-only charge, and with batch_window == 1 a
    // one-inference flush accumulates the exact same double.
    const double analytic =
        static_cast<double>(cfg.macs_per_inference) * config_.energy_per_mac_j *
            mac_scale(config_, cfg) +
        static_cast<double>(cfg.weight_bytes) * config_.energy_per_weight_byte_j;
    st.analytic_compute_energy_j += analytic;
    const bool int8 = cfg.precision == nn::Precision::kInt8;
    if (config_.execute_and_meter && cfg.net != nullptr) {
      // A one-item plan through the same executor as a batched flush.
      const std::size_t g = group_of_[slot];
      plan_.clear();
      plan_pass(g, *cfg.net, cfg.precision, 1, cfg.split_layers);
      run_plan();
      const double t = flush_[g].time_s[prec_idx(cfg.precision)];
      st.kernel_time_s += t;
      (int8 ? st.kernel_time_int8_s : st.kernel_time_f32_s) += t;
      ++st.executed_inferences;
      const double e = t * config_.compute_power_w;
      st.compute_energy_j += e;
      (int8 ? st.compute_energy_int8_j : st.compute_energy_f32_j) += e;
    } else {
      st.compute_energy_j += analytic;
      (int8 ? st.compute_energy_int8_j : st.compute_energy_f32_j) += analytic;
    }
    if (cfg.forward_to_cloud) {
      st.uplink_energy_j +=
          static_cast<double>(cfg.result_bytes) * 8.0 * config_.uplink_energy_per_bit_j;
    }
  }
}

void Hub::flush_pending(sim::Time now) {
  if (config_.batch_window == 0) return;
  superframes_since_flush_ = 0;
  flush_batches(now);
}

void Hub::on_superframe_end(sim::Time boundary) {
  if (++superframes_since_flush_ < config_.batch_window) return;
  superframes_since_flush_ = 0;
  flush_batches(boundary);
}

void Hub::flush_batches(sim::Time boundary) {
  // Phase 1, per group: staged counts, staging delay, and the group's
  // metered passes appended to one flat work plan spanning all groups.
  plan_.clear();
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const std::vector<std::size_t>& members = groups_[g].second;
    GroupFlush& fl = flush_[g];
    fl = GroupFlush{};
    // Staged inference count per member and the group's weight footprint
    // (members share a model; max() tolerates config drift). Metered
    // counts cover the members that carry an executable model (the group
    // shares one by construction); members without one stay analytic,
    // exactly as on the per-frame path.
    const nn::Model* net = nullptr;
    std::size_t split_first = 0;  // shared by construction: split is in the group key
    for (const std::size_t slot : members) {
      Session& sess = sessions_[slot];
      const SessionConfig& cfg = sess.cfg;
      const std::uint64_t n = sess.staged.pending_bytes / cfg.bytes_per_inference;
      fl.total += n;
      fl.weight_bytes = std::max(fl.weight_bytes, cfg.weight_bytes);
      if (config_.execute_and_meter && cfg.net != nullptr) {
        IOB_EXPECTS(net == nullptr || net == cfg.net,
                    "sessions sharing a model tag must share one nn::Model instance");
        net = cfg.net;
        split_first = cfg.split_layers;
        fl.metered[prec_idx(cfg.precision)] += n;
      }
      // Staging delay is charged at every flush: each staged frame waited
      // from delivery to this boundary whether or not its window filled.
      // The clamp covers the end-of-run flush, where the final superframe's
      // deliveries carry timestamps past the run horizon (zero wait, never
      // negative).
      for (const sim::Time t : sess.staged.frame_times) {
        sess.stats.queued_latency_s.add(std::max(0.0, boundary - t));
      }
      sess.staged.frame_times.clear();
    }
    if (fl.total == 0) continue;
    ++batched_passes_;
    if (fl.metered[0] > 0) plan_pass(g, *net, nn::Precision::kF32, fl.metered[0], split_first);
    if (fl.metered[1] > 0) plan_pass(g, *net, nn::Precision::kInt8, fl.metered[1], split_first);
  }
  run_plan();

  // Phase 2, per group: one batched model pass of size `total`. Weights
  // stream once; each session pays its sample MACs plus its share of the
  // weight cost, and a metered session its share of its precision's
  // measured kernel time.
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const GroupFlush& fl = flush_[g];
    if (fl.total == 0) continue;
    const double weight_energy_j =
        static_cast<double>(fl.weight_bytes) * config_.energy_per_weight_byte_j;
    for (const std::size_t slot : groups_[g].second) {
      Session& sess = sessions_[slot];
      const SessionConfig& cfg = sess.cfg;
      Staged& staged = sess.staged;
      const std::uint64_t n = staged.pending_bytes / cfg.bytes_per_inference;
      if (n == 0) continue;
      staged.pending_bytes -= n * cfg.bytes_per_inference;
      SessionStats& st = sess.stats;
      st.inferences += n;
      st.batched_inferences += n;
      ++st.batched_passes;
      const double analytic =
          static_cast<double>(n * cfg.macs_per_inference) * config_.energy_per_mac_j *
              mac_scale(config_, cfg) +
          weight_energy_j * (static_cast<double>(n) / static_cast<double>(fl.total));
      st.analytic_compute_energy_j += analytic;
      const bool int8 = cfg.precision == nn::Precision::kInt8;
      double charged = analytic;
      const std::size_t pi = prec_idx(cfg.precision);
      if (fl.metered[pi] > 0 && cfg.net != nullptr) {
        const double time_share =
            fl.time_s[pi] * (static_cast<double>(n) / static_cast<double>(fl.metered[pi]));
        st.kernel_time_s += time_share;
        (int8 ? st.kernel_time_int8_s : st.kernel_time_f32_s) += time_share;
        st.executed_inferences += n;
        charged = time_share * config_.compute_power_w;
      }
      st.compute_energy_j += charged;
      (int8 ? st.compute_energy_int8_j : st.compute_energy_f32_j) += charged;
      st.batched_compute_energy_j += charged;
      if (cfg.forward_to_cloud) {
        st.uplink_energy_j += static_cast<double>(n) * static_cast<double>(cfg.result_bytes) *
                              8.0 * config_.uplink_energy_per_bit_j;
      }
    }
  }
}

void Hub::on_hub_crash(sim::Time now) {
  if (!up_) return;
  up_ = false;
  ++crashes_;
  crashed_at_ = now;
  bus_.set_hub_up(false);
  // Staged work dies with the crash. Iterate groups_ (insertion order, like
  // flush_batches) so the attribution order is deterministic.
  for (const auto& [group, members] : groups_) {
    (void)group;
    for (const std::size_t slot : members) {
      Session& sess = sessions_[slot];
      sess.stats.staged_frames_lost += sess.staged.frame_times.size();
      sess.stats.staged_bytes_lost += sess.staged.pending_bytes;
      sess.staged.pending_bytes = 0;
      sess.staged.frame_times.clear();
    }
  }
  superframes_since_flush_ = 0;
}

void Hub::on_hub_restart(sim::Time now) {
  if (up_) return;
  up_ = true;
  downtime_closed_s_ += now - crashed_at_;
  bus_.set_hub_up(true);
  // Sessions restore from their surviving configs; each one re-syncs with
  // an empty staging buffer.
  for (const auto& [group, members] : groups_) {
    (void)group;
    for (const std::size_t slot : members) ++sessions_[slot].stats.fault_resyncs;
  }
}

double Hub::downtime_s(sim::Time now) const {
  return downtime_closed_s_ + (up_ ? 0.0 : now - crashed_at_);
}

double Hub::availability(sim::Time now) const {
  if (now <= 0.0) return 1.0;
  return 1.0 - downtime_s(now) / now;
}

std::uint64_t Hub::group_staged_inferences(std::size_t slot) const {
  std::uint64_t total = 0;
  for (const std::size_t member : groups_[group_of_[slot]].second) {
    const Session& sess = sessions_[member];
    total += sess.staged.pending_bytes / sess.cfg.bytes_per_inference;
  }
  return total;
}

void Hub::plan_pass(std::size_t group, const nn::Model& net, nn::Precision precision,
                    std::uint64_t count, std::size_t first_layer) {
  const std::size_t prec = prec_idx(precision);
  flush_[group].time_s[prec] = 0.0;
  const nn::QuantizedModel* qm = nullptr;
  if (precision == nn::Precision::kInt8) {
    const auto it = qmodels_.find(&net);
    IOB_EXPECTS(it != qmodels_.end(), "int8 metered session has no quantized model");
    qm = it->second.get();
  }
  IOB_EXPECTS(first_layer <= net.layer_count(), "resume layer out of range");
  if (first_layer == net.layer_count()) return;
  for (std::uint64_t done = 0; done < count; done += kMeterBatchCap) {
    const int b = static_cast<int>(std::min(count - done, kMeterBatchCap));
    plan_.push_back({&net, qm, first_layer, b, group, prec});
  }
}

void Hub::run_plan() {
  const std::size_t n = plan_.size();
  if (item_time_s_.size() < n) item_time_s_.resize(n);
  const std::size_t threads =
      config_.engine_threads == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : config_.engine_threads;
  // Fan out only when it can pay off AND we are not already inside another
  // pool's parallel region (a fleet sweep runs many hubs concurrently; the
  // plan runs inline there so thread counts never multiply).
  if (threads > 1 && n > 1 && !sim::TaskPool::in_parallel_region()) {
    if (engine_pool_ == nullptr) engine_pool_ = std::make_unique<sim::TaskPool>(threads);
    // One index per plan item, claimed from the pool's cursor. Which thread
    // runs an item varies run to run; its inputs, model and outputs do not
    // — only its CPU time can. The one-pointer capture fits
    // std::function's small buffer, so no allocation.
    engine_pool_->parallel_for(n, [this](std::size_t begin, std::size_t end) {
      static thread_local SynthBuf synth;
      nn::Workspace& ws = nn::detail::thread_workspace();
      for (std::size_t i = begin; i < end; ++i) item_time_s_[i] = run_item(plan_[i], ws, synth);
    });
  } else {
    for (std::size_t i = 0; i < n; ++i) item_time_s_[i] = run_item(plan_[i], ws_, synth_);
  }
  // Merge in plan order: every (group, precision) sums its items left to
  // right, the same reduction at any thread count.
  for (std::size_t i = 0; i < n; ++i) {
    flush_[plan_[i].group].time_s[plan_[i].prec] += item_time_s_[i];
  }
}

double Hub::run_item(const PlanItem& item, nn::Workspace& ws, SynthBuf& synth) {
  // Patterned input: a pure function of element position, so the prefix a
  // batch feeds in is bit-identical whichever buffer staged it, in
  // whatever growth order.
  const std::int64_t elems = pass_input_elems(*item.net, item.first_layer) * item.batch;
  if (static_cast<std::int64_t>(synth.data.size()) < elems) {
    synth.data.resize(static_cast<std::size_t>(elems));
  }
  for (std::int64_t i = synth.filled; i < elems; ++i) {
    synth.data[static_cast<std::size_t>(i)] =
        static_cast<float>((static_cast<std::uint64_t>(i) * 2654435761ULL) % 1024ULL) / 512.0f -
        1.0f;
  }
  synth.filled = std::max(synth.filled, elems);
  // Size the arena outside the timed region: one-time buffer growth is
  // setup cost, not kernel time, and would skew short metered runs.
  if (item.qm != nullptr) {
    ws.configure(*item.qm, item.batch);
  } else {
    ws.configure(*item.net, item.batch);
  }
  const std::size_t last = item.net->layer_count();
  const double t0 = thread_cpu_s();
  const nn::ConstSpan out =
      item.qm != nullptr
          ? item.qm->run_range_into(ws, synth.data.data(), item.batch, item.first_layer, last)
          : item.net->run_range_into(ws, synth.data.data(), item.batch, item.first_layer, last);
  const double elapsed = thread_cpu_s() - t0;
  // Touch the result so the pass is observably executed.
  IOB_ENSURES(out.size > 0, "metered pass produced no output");
  return elapsed;
}

void Hub::on_repartition(const std::string& stream, std::size_t split_at) {
  const auto it = session_index_.find(stream);
  if (it == session_index_.end()) return;
  Session& sess = sessions_[it->second];
  SessionConfig cfg = sess.cfg;
  if (cfg.net == nullptr) return;  // nothing to recompute the suffix from
  const nn::Model& net = *cfg.net;
  IOB_EXPECTS(split_at <= net.layer_count(), "repartition split point out of range");

  // The hub's share of the work moves with the boundary: suffix MACs, the
  // suffix's int8 weight footprint (1 B/param; only when weight traffic was
  // modelled to begin with), and the boundary-activation window size.
  const auto& profiles = net.profiles();
  std::uint64_t suffix_macs = 0;
  std::uint64_t suffix_params = 0;
  for (std::size_t i = split_at; i < net.layer_count(); ++i) {
    suffix_macs += profiles[i].macs;
    suffix_params += profiles[i].params;
  }
  cfg.split_layers = split_at;
  cfg.macs_per_inference = suffix_macs;
  cfg.bytes_per_inference =
      static_cast<std::uint64_t>(nn::activation_wire_bytes(pass_input_elems(net, split_at),
                                                           cfg.precision));
  if (cfg.weight_bytes != 0) cfg.weight_bytes = suffix_params;

  // A partial window staged at the old boundary size can never complete at
  // the new one — purge it and attribute the loss instead of silently
  // re-interpreting stale bytes as part of a differently-shaped activation.
  sess.stats.repartition_dropped_bytes += sess.staged.pending_bytes;
  sess.staged.pending_bytes = 0;
  sess.staged.frame_times.clear();
  ++sess.stats.repartitions;

  // Re-register: re-groups the session under the new split key (stats and
  // staging survive — add_session only replaces the config of a live slot).
  add_session(std::move(cfg));
}

void Hub::credit_leaf_compute(const std::string& stream, double kernel_time_s,
                              double compute_energy_j, double analytic_energy_j,
                              std::uint64_t inferences, std::uint64_t activation_bytes) {
  const auto it = session_index_.find(stream);
  if (it == session_index_.end()) return;
  SessionStats& st = sessions_[it->second].stats;
  st.leaf_kernel_time_s += kernel_time_s;
  st.leaf_compute_energy_j += compute_energy_j;
  st.leaf_analytic_compute_energy_j += analytic_energy_j;
  st.leaf_inferences += inferences;
  st.activation_bytes_shipped += activation_bytes;
}

void Hub::credit_degradation(const std::string& stream, std::uint64_t transitions,
                             double time_degraded_s, std::uint64_t frames_shed) {
  const auto it = session_index_.find(stream);
  if (it == session_index_.end()) return;
  SessionStats& st = sessions_[it->second].stats;
  st.degradation_transitions += transitions;
  st.degradation_time_s += time_degraded_s;
  st.frames_saved_by_shedding += frames_shed;
}

const SessionStats& Hub::session(const std::string& stream) const {
  const auto it = session_index_.find(stream);
  if (it == session_index_.end()) throw std::invalid_argument("unknown session: " + stream);
  return sessions_[it->second].stats;
}

double Hub::energy_j() const {
  // Base power accrues only while the hub is up. With zero downtime the
  // subtraction is exact, keeping the clean-path ledger bit-identical.
  double e = bus_.stats().hub_rx_energy_j + bus_.stats().hub_tx_energy_j +
             config_.base_power_w * (sim_.now() - downtime_s(sim_.now()));
  for (const auto& [group, members] : groups_) {
    (void)group;
    for (const std::size_t slot : members) {
      e += sessions_[slot].stats.compute_energy_j + sessions_[slot].stats.uplink_energy_j;
    }
  }
  return e;
}

double Hub::average_power_w() const {
  const double t = sim_.now();
  return t > 0 ? energy_j() / t : 0.0;
}

}  // namespace iob::net
