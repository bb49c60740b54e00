#pragma once
/// \file hub.hpp
/// The on-body hub ("wearable brain", paper Fig. 1 right): terminates the
/// body bus, runs edge inference sessions over delivered streams, and
/// uplinks results to fog/cloud. The hub is the one device that keeps the
/// daily-charging battery; its energy ledger (bus RX/TX + compute + uplink)
/// is tracked so the architecture comparison can show the *system* cost,
/// not just the leaf savings.
///
/// Two staging modes feed one executor:
///  * per-frame (`batch_window == 0`, the legacy default): every time a
///    stream's staged bytes cross its window, one inference runs
///    immediately, re-streaming the model weights each time.
///  * superframe-batched (`batch_window == K >= 1`): deliveries stage per
///    stream tag; every K TDMA superframes the hub folds all sessions
///    sharing a model into one batched pass (`nn::Model::run_batched` is
///    the executable counterpart), attributing per-session energy as
///    `weight_cost / batch + per_sample_cost` and recording the staging
///    delay in `SessionStats::queued_latency_s`.
///
/// Under execute-and-meter, both modes hand the inferences they run to the
/// same work-plan executor: a flat list of (group, precision, sub-batch)
/// items — one item per frame on the per-frame path, every metered group of
/// a flush on the batched path — run inline or across the engine pool.

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "comm/tdma.hpp"
#include "net/session.hpp"
#include "nn/qmodel.hpp"
#include "nn/workspace.hpp"
#include "sim/simulator.hpp"
#include "sim/task_pool.hpp"

namespace iob::net {

struct HubConfig {
  double energy_per_mac_j = 5e-12;   ///< hub silicon efficiency
  double uplink_energy_per_bit_j = 30e-9;  ///< Wi-Fi-class
  double base_power_w = 50e-3;       ///< SoC idle/display/OS floor
  /// Superframes staged per batched flush; 0 keeps the per-frame path.
  unsigned batch_window = 0;
  /// Adaptive batch flush: when > 0 (batched path only), a delivery that
  /// brings any model group's staged inference count to this target flushes
  /// the whole batch window immediately instead of waiting for the
  /// superframe boundary — bounding `queued_latency_s` under bursty
  /// traffic. 0 keeps the fixed-window behavior bit-identical.
  std::uint64_t max_staged_batch = 0;
  /// int8 weight-streaming cost per byte (DRAM-class), paid once per model
  /// pass. Only sessions with `weight_bytes > 0` are affected.
  double energy_per_weight_byte_j = 50e-12;
  /// Execute-and-meter mode: sessions carrying a `SessionConfig::net`
  /// actually run their staged inferences through the allocation-free nn
  /// engine (`nn::Model::run_into` on the hub's workspace), and their
  /// `compute_energy_j` derives from measured kernel thread CPU time x
  /// `compute_power_w` instead of the analytic MAC/weight-byte counts (the
  /// analytic number keeps accruing alongside in
  /// `SessionStats::analytic_compute_energy_j`). Sessions without a model
  /// stay analytic. Off by default: measured CPU time is inherently
  /// host-dependent, so deterministic sweeps must keep this disabled.
  bool execute_and_meter = false;
  /// Active power of the hub's inference engine per second of metered
  /// kernel thread CPU time (W). The 250 mW default is a wearable-SoC
  /// NPU/DSP class figure.
  double compute_power_w = 0.25;
  /// Analytic MAC-energy discount for int8 sessions: an int8 MAC costs
  /// roughly a quarter of an f32 MAC in silicon (Horowitz, ISSCC'14 class
  /// numbers), so sessions with `SessionConfig::precision == kInt8` charge
  /// `macs * energy_per_mac_j * int8_mac_energy_scale`. The weight term is
  /// untouched — `energy_per_weight_byte_j` already prices int8 bytes.
  /// f32 sessions never consult this, keeping their ledger bit-identical.
  double int8_mac_energy_scale = 0.25;
  /// Engine threads for execute-and-meter: a flush's work plan — every
  /// metered (group, precision, sub-batch of <= `kMeterBatchCap`) item
  /// across all model groups — runs in one `parallel_for` on a persistent
  /// `sim::TaskPool` owned by the hub, lazily spawned on the first plan
  /// with more than one item. Workers claim items dynamically, each on its
  /// own grow-only `nn::Workspace` + synth staging, and per-item CPU times
  /// merge in plan order — logits and every non-time stat are
  /// bit-identical at any thread count. 1 (default) runs the plan inline;
  /// 0 means hardware concurrency. Inside another pool's parallel region
  /// (a `SweepRunner` sweep) the plan runs inline — fleet parallelism
  /// wins, thread counts never multiply.
  unsigned engine_threads = 1;
};

class Hub {
 public:
  Hub(sim::Simulator& sim, comm::TdmaBus& bus, HubConfig config = {});

  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  /// Register an inference session for a stream tag.
  void add_session(SessionConfig config);

  /// Fold any still-staged windows into a final (possibly smaller) batched
  /// pass. `NetworkSim::run` calls this once after the bus stops so work
  /// staged in the last incomplete batch window is measured, not dropped.
  /// No-op on the per-frame path or when nothing is staged.
  void flush_pending(sim::Time now);

  [[nodiscard]] const SessionStats& session(const std::string& stream) const;
  [[nodiscard]] std::uint64_t frames_received() const { return frames_received_; }
  [[nodiscard]] std::uint64_t bytes_received() const { return bytes_received_; }

  /// Batched model passes executed so far (0 on the per-frame path).
  [[nodiscard]] std::uint64_t batched_passes() const { return batched_passes_; }

  // --- Crash/restart lifecycle (driven by net::FaultInjector) ---

  /// Crash the hub at `now`: the bus stops issuing superframes, every
  /// session's staging buffer is discarded (attributed to
  /// `SessionStats::staged_frames_lost` / `staged_bytes_lost`), and the
  /// base-power ledger stops accruing. Session *configs* survive — that is
  /// the restore-on-restart contract.
  void on_hub_crash(sim::Time now);

  /// Restart the hub at `now`: sessions re-sync (counted in
  /// `SessionStats::fault_resyncs`) with empty staging state and the bus
  /// resumes beaconing on its preserved cadence.
  void on_hub_restart(sim::Time now);

  [[nodiscard]] bool up() const { return up_; }
  [[nodiscard]] std::uint64_t crashes() const { return crashes_; }

  // --- Split execution (docs/architecture.md) ---

  /// Re-sync a session after the leaf moved its split point to `split_at`
  /// (the `Node` adaptive-split resync callback lands here). Recomputes the
  /// session's hub-suffix MACs, boundary wire size, and weight footprint
  /// from its `net`, purges the now-uncompletable staged partial window
  /// (counted in `SessionStats::repartition_dropped_bytes`), and re-groups
  /// the session under the new split key. No-op for unknown streams or
  /// sessions without an executable model (nothing to recompute from).
  void on_repartition(const std::string& stream, std::size_t split_at);

  /// Credit the leaf-venue half of a split session's inferences into its
  /// `SessionStats` (the `leaf_*` / `activation_bytes_shipped` fields).
  /// `NetworkSim::run` calls this once per split node after the bus stops,
  /// so a finished run's stats expose both venues side by side. Unknown
  /// streams are ignored (a split node need not have a hub consumer).
  void credit_leaf_compute(const std::string& stream, double kernel_time_s,
                           double compute_energy_j, double analytic_energy_j,
                           std::uint64_t inferences, std::uint64_t activation_bytes);

  /// Credit a node's degradation-controller telemetry into its session's
  /// `SessionStats` (`degradation_*` / `frames_saved_by_shedding`). Same
  /// post-run crediting pattern as `credit_leaf_compute`; unknown streams
  /// are ignored.
  void credit_degradation(const std::string& stream, std::uint64_t transitions,
                          double time_degraded_s, std::uint64_t frames_shed);

  /// Accumulated crashed time up to `now`, including an open outage.
  [[nodiscard]] double downtime_s(sim::Time now) const;

  /// Fraction of [0, now] the hub was up. 1.0 on the clean path.
  [[nodiscard]] double availability(sim::Time now) const;

  /// Total hub energy (J) up to now: bus RX/TX + sessions + base floor.
  [[nodiscard]] double energy_j() const;

  /// Average hub power (W) over the run.
  [[nodiscard]] double average_power_w() const;

  [[nodiscard]] const HubConfig& config() const { return config_; }

 private:
  /// Per-stream staging state. `pending_bytes` is the not-yet-inferred
  /// carry on both paths; `frame_times` only fills when batching.
  struct Staged {
    std::uint64_t pending_bytes = 0;
    std::vector<sim::Time> frame_times;
  };

  /// One registered session, all hot-path state co-located in a single
  /// slot: the frame-delivery path does ONE hash lookup (stream -> slot)
  /// instead of the historical three map probes (config, stats, staging),
  /// and flush/group walks index a deque instead of re-hashing tags.
  struct Session {
    SessionConfig cfg;
    SessionStats stats;
    Staged staged;
  };

  void on_frame(const comm::Frame& frame, sim::Time delivered_at);
  void on_superframe_end(sim::Time boundary);
  void flush_batches(sim::Time boundary);

  /// Staged inference count of the model group containing session `slot`
  /// (the adaptive-flush trigger quantity).
  [[nodiscard]] std::uint64_t group_staged_inferences(std::size_t slot) const;

  /// Per-group flush state, indexed like `groups_`: staged counts, and
  /// the metered CPU time of the group's [f32, int8] passes.
  struct GroupFlush {
    std::uint64_t total = 0;
    std::uint64_t weight_bytes = 0;
    std::uint64_t metered[2] = {0, 0};
    double time_s[2] = {0.0, 0.0};
  };

  /// One work-plan item: <= kMeterBatchCap inferences of one (group,
  /// precision) pass, resuming at `first_layer` (0 = whole model).
  struct PlanItem {
    const nn::Model* net;
    const nn::QuantizedModel* qm;  ///< int8 lowering; null runs f32
    std::size_t first_layer;
    int batch;
    std::size_t group;
    std::size_t prec;  ///< 0 = f32, 1 = int8
  };

  /// Grow-only patterned input staging.
  struct SynthBuf {
    std::vector<float> data;
    std::int64_t filled = 0;  ///< prefix already patterned
  };

  /// Zero the (group, precision) time and append `count` inferences of
  /// `net` to the plan in items of <= kMeterBatchCap. Appends nothing when
  /// everything runs on the leaf (`first_layer` == layer count).
  void plan_pass(std::size_t group, const nn::Model& net, nn::Precision precision,
                 std::uint64_t count, std::size_t first_layer);

  /// Run the plan — inline on `ws_`, or in one `parallel_for` over the
  /// plan's items, each claimed by whichever engine thread is free — and
  /// add each item's thread CPU time to its (group, precision), in plan
  /// order.
  void run_plan();

  /// Run one item on `ws` with patterned inputs staged in `synth` (frames
  /// carry byte counts, not tensors; the pattern is a pure function of
  /// element position) and return its kernel thread CPU time (s).
  static double run_item(const PlanItem& item, nn::Workspace& ws, SynthBuf& synth);

  /// Plan item size cap: small enough that a one-superframe flush fills
  /// the engine pool (per-item kernel cost is flat in batch size).
  static constexpr std::uint64_t kMeterBatchCap = 8;

  sim::Simulator& sim_;
  comm::TdmaBus& bus_;
  HubConfig config_;
  /// Registered sessions by slot. A deque so `session()` references stay
  /// valid across later `add_session` calls (no reallocation moves).
  std::deque<Session> sessions_;
  /// Stream tag -> slot. Reserved at add_session; the delivery hot path
  /// only probes (never inserts), so steady state does zero rehashing.
  std::unordered_map<std::string, std::size_t> session_index_;
  /// Model groups in insertion order: (group key, member session slots).
  /// Iterated at flush so energy accumulation order is deterministic and
  /// compiler-independent (never hash-map order).
  std::vector<std::pair<std::string, std::vector<std::size_t>>> groups_;
  /// Session slot -> index into groups_, maintained by add_session so the
  /// adaptive-flush check on the frame-delivery hot path is a vector index
  /// plus a member walk — no string building, no group scan, no
  /// allocations.
  std::vector<std::size_t> group_of_;
  unsigned superframes_since_flush_ = 0;
  std::uint64_t batched_passes_ = 0;
  bool up_ = true;
  std::uint64_t crashes_ = 0;
  double downtime_closed_s_ = 0.0;  ///< completed outages only
  double crashed_at_ = 0.0;         ///< start of the open outage
  std::uint64_t frames_received_ = 0;
  std::uint64_t bytes_received_ = 0;
  // Inline plan runs' workspace and staging; per-group flush state; the
  // plan and its per-item CPU times. All grow-only, reused across flushes.
  nn::Workspace ws_;
  SynthBuf synth_;
  std::vector<GroupFlush> flush_;
  std::vector<PlanItem> plan_;
  std::vector<double> item_time_s_;
  /// Engine pool, spawned lazily by the first plan that fans out.
  std::unique_ptr<sim::TaskPool> engine_pool_;
  /// Quantize-at-load cache: one `nn::QuantizedModel` per distinct source
  /// model, built when an int8 session registers under execute-and-meter
  /// (never in the metered hot path).
  std::unordered_map<const nn::Model*, std::unique_ptr<nn::QuantizedModel>> qmodels_;
};

}  // namespace iob::net
