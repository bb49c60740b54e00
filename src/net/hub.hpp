#pragma once
/// \file hub.hpp
/// The on-body hub ("wearable brain", paper Fig. 1 right): terminates the
/// body bus, runs edge inference sessions over delivered streams, and
/// uplinks results to fog/cloud. The hub is the one device that keeps the
/// daily-charging battery; its energy ledger (bus RX/TX + compute + uplink)
/// is tracked so the architecture comparison can show the *system* cost,
/// not just the leaf savings.
///
/// One staging path: deliveries stage per interned stream id
/// (`comm::TdmaBus::intern_stream`) and `flush_batches` runs every staged
/// inference. It folds all sessions sharing a model into one batched pass,
/// attributing per-session energy as `weight_cost / batch +
/// per_sample_cost`. What triggers a flush is `HubConfig::batch_window`:
///  * `0` (the default): the delivery that completes a session's window
///    flushes at once, so each pass holds that delivery's inferences and no
///    staging delay is added;
///  * `K >= 1`: every K TDMA superframes, recording each staged frame's wait
///    in `SessionStats::queued_latency_s`.
///
/// Under execute-and-meter a flush hands its metered inferences to one
/// work-plan executor: a flat list of (group, precision, sub-batch) items
/// run inline or across the engine pool. Each item is one `run_range_into`
/// call on the f32 `nn::Model` or its int8 `nn::QuantizedModel`, from the
/// session's `split_layers` to the last layer.

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
#include "sim/simulator.hpp"
#include "sim/task_pool.hpp"

namespace iob::net {

struct HubConfig {
  double energy_per_mac_j = 5e-12;   ///< hub silicon efficiency
  double uplink_energy_per_bit_j = 30e-9;  ///< Wi-Fi-class
  double base_power_w = 50e-3;       ///< SoC idle/display/OS floor
  /// Superframes staged per batched flush. 0 flushes as soon as a delivery
  /// completes its session's window, with no staging delay.
  unsigned batch_window = 0;
  /// int8 weight-streaming cost per byte (DRAM-class), paid once per model
  /// pass. Only sessions with `weight_bytes > 0` are affected.
  double energy_per_weight_byte_j = 50e-12;
  /// Execute-and-meter mode: sessions carrying a `SessionConfig::net`
  /// actually run their staged inferences through the allocation-free nn
  /// engine (`nn::Model::run_into` on the running thread's workspace), and their
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
  /// No-op when nothing is staged.
  void flush_pending(sim::Time now);

  /// Hub-side stats of the session consuming `stream`. Frames and bytes
  /// the hub received are the bus's count (`comm::MacStats`), not the
  /// hub's.
  [[nodiscard]] const SessionStats& session(const std::string& stream) const;

  /// Model-group passes executed so far: one per group per flush that ran
  /// any of its inferences.
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
  /// (the `Node` adaptive-split resync callback lands here). Rewrites the
  /// session with `split_session`, purges the now-uncompletable staged
  /// partial window (counted in `SessionStats::repartition_dropped_bytes`),
  /// and re-groups the session under the new split key. No-op for unknown streams or
  /// sessions without an executable model (nothing to recompute from).
  void on_repartition(const std::string& stream, std::size_t split_at);

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
  /// carry; `frame_times` only fills when `batch_window > 0`.
  struct Staged {
    std::uint64_t pending_bytes = 0;
    std::vector<sim::Time> frame_times;
  };

  /// One registered session, all hot-path state co-located in a single
  /// slot: the frame-delivery path indexes `slot_of_stream_` by the frame's
  /// interned stream id, and flush/group walks index a deque.
  struct Session {
    SessionConfig cfg;
    SessionStats stats;
    Staged staged;
  };

  void on_frame(const comm::Frame& frame, sim::Time delivered_at);
  void on_superframe_end(sim::Time boundary);
  void flush_batches(sim::Time boundary);

  /// Slot of the session consuming stream tag `stream`, or `kNoSlot`. The
  /// cold string APIs resolve through the bus's intern table.
  [[nodiscard]] std::size_t slot_of(const std::string& stream) const;
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

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

  /// Run the plan — inline, or in one `parallel_for` over the
  /// plan's items, each claimed by whichever engine thread is free — and
  /// add each item's thread CPU time to its (group, precision), in plan
  /// order.
  void run_plan();

  /// Run one item on the calling thread's workspace with patterned inputs
  /// staged in its `SynthBuf` (frames carry byte counts, not tensors; the
  /// pattern is a pure function of element position) and return its kernel
  /// thread CPU time (s).
  static double run_item(const PlanItem& item);

  /// Plan item size cap: small enough that a one-superframe flush fills
  /// the engine pool (per-item kernel cost is flat in batch size).
  static constexpr std::uint64_t kMeterBatchCap = 8;

  sim::Simulator& sim_;
  comm::TdmaBus& bus_;
  HubConfig config_;
  /// Registered sessions by slot. A deque so `session()` references stay
  /// valid across later `add_session` calls (no reallocation moves).
  std::deque<Session> sessions_;
  /// Interned stream id -> session slot (`kNoSlot` for a stream with no
  /// session). Grown by add_session; the bus owns the id assignment.
  std::vector<std::size_t> slot_of_stream_;
  /// Model groups in insertion order: (group key, member session slots).
  /// Iterated at flush so energy accumulation order is deterministic and
  /// compiler-independent (never hash-map order).
  std::vector<std::pair<std::string, std::vector<std::size_t>>> groups_;
  unsigned superframes_since_flush_ = 0;
  std::uint64_t batched_passes_ = 0;
  bool up_ = true;
  std::uint64_t crashes_ = 0;
  double downtime_closed_s_ = 0.0;  ///< completed outages only
  double crashed_at_ = 0.0;         ///< start of the open outage
  // Per-group flush state; the plan and its per-item CPU times. All
  // grow-only, reused across flushes.
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
