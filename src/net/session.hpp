#pragma once
/// \file session.hpp
/// Hub-side stream sessions: what the "wearable brain" does with each
/// delivered stream. A session accumulates payload bytes and triggers one
/// model inference per `bytes_per_inference` (e.g. one KWS pass per audio
/// window), charging hub compute energy and tracking inference latency.
///
/// Compute energy has two components: the per-sample MAC cost and the int8
/// weight-streaming cost (`weight_bytes`), paid once per model pass. Every
/// hub flush folds the staged inferences of sessions that share a `model`
/// into one batched pass, so each inference in a batch of N pays only
/// `weight_cost / N + per_sample_cost` — the server-side batching
/// amortization, on-body. A wider `HubConfig::batch_window` stages more
/// inferences per pass.

#include <cstdint>
#include <string>

#include "nn/precision.hpp"
#include "sim/stats.hpp"

namespace iob::nn {
class Model;
}

namespace iob::net {

struct SessionConfig {
  std::string stream;                 ///< stream tag this session consumes
  std::uint64_t macs_per_inference = 0;
  std::uint64_t bytes_per_inference = 1;  ///< window size triggering a pass
  bool forward_to_cloud = false;      ///< uplink results (adds hub TX energy)
  std::uint32_t result_bytes = 16;    ///< classification result size
  /// Model identity: sessions sharing a non-empty tag fold into one batched
  /// pass per flush (they run the same network). Empty = private model.
  std::string model;
  /// int8 weight footprint streamed per model pass (0 = weight traffic not
  /// modelled; keeps pre-batching energy numbers bit-identical).
  std::uint64_t weight_bytes = 0;
  /// Executable network behind this session (not owned; must outlive the
  /// hub). When `HubConfig::execute_and_meter` is on, the hub runs every
  /// staged inference through this model's allocation-free engine
  /// (`nn::Model::run_into`) and derives compute energy from the measured
  /// kernel time; nullptr keeps the session analytic-only. Sessions
  /// sharing a `model` tag must point at the same instance (they fold into
  /// one batched pass; the hub's flush enforces this).
  const nn::Model* net = nullptr;
  /// Execution precision of this session's inferences — the same
  /// `nn::Precision` the partitioner's transport flag derives from. With
  /// `kInt8` the analytic ledger discounts MAC energy by
  /// `HubConfig::int8_mac_energy_scale` (the weight-streaming term is
  /// already int8-priced), and execute-and-meter runs the staged
  /// inferences through the hub's `nn::QuantizedModel` lowering of `net`
  /// instead of the f32 engine — the meter finally measures the precision
  /// the weight-energy model prices. `kF32` keeps every energy number
  /// bit-identical to the pre-precision ledger.
  nn::Precision precision = nn::Precision::kF32;
  /// Split execution (docs/architecture.md): first model layer the hub runs.
  /// 0 (the default) runs the whole model. Set it with `split_session`,
  /// which also rewrites the window, MACs and weight footprint to the
  /// suffix's. For int8 metered sessions the boundary must be feasible
  /// (`QuantizedModel::feasible_boundary`); `Hub::add_session` enforces it.
  std::size_t split_layers = 0;
};

/// The hub half of a split at layer `split_at` of `cfg.net` (non-null;
/// `split_at <= layer_count()`): `cfg` resuming at `split_at`, its window
/// (`bytes_per_inference`) the boundary activation's wire size in
/// `cfg.precision` (`nn::activation_wire_bytes`), its MACs the suffix's,
/// and — when weight traffic is modelled (`weight_bytes != 0`) — its
/// weight footprint the suffix's int8 parameters (1 B/param).
[[nodiscard]] SessionConfig split_session(SessionConfig cfg, std::size_t split_at);

/// What the hub observed for one session. A session runs at one
/// `SessionConfig::precision`, so its compute energy and kernel time are
/// that precision's. The leaf's own telemetry (degradation, shedding,
/// split ledger) lives in `NodeReport`, and frame counts in the bus's
/// `comm::MacStats`.
struct SessionStats {
  std::uint64_t bytes_in = 0;
  std::uint64_t inferences = 0;
  double compute_energy_j = 0.0;   ///< per-sample MACs + (amortized) weight streaming
  double uplink_energy_j = 0.0;
  /// Inferences run by batched passes. Every flush runs a batched pass, so
  /// this equals `inferences`.
  std::uint64_t batched_inferences = 0;
  /// Batched model passes this session participated in.
  std::uint64_t batched_passes = 0;
  /// Staging delay the batch window adds: delivery -> superframe flush,
  /// one sample per staged frame. Empty when `batch_window == 0`.
  sim::Accumulator queued_latency_s;
  /// Measured kernel thread CPU time attributed to this session (s): each
  /// executed pass's time split by inference share. 0 unless the hub runs
  /// in execute-and-meter mode with `SessionConfig::net` set.
  double kernel_time_s = 0.0;
  /// Inferences that actually executed on the nn engine (execute-and-meter
  /// mode only; subset of `inferences`).
  std::uint64_t executed_inferences = 0;
  /// What the analytic MAC/weight-byte model would have charged. On the
  /// analytic path this equals `compute_energy_j` exactly; in
  /// execute-and-meter mode it runs alongside the measured number so the
  /// two energy models can be compared point-for-point.
  double analytic_compute_energy_j = 0.0;
  // --- Fault attribution (docs/robustness.md; all zero on the clean path) ---
  /// Frames that sat staged at the hub when it crashed (lost work: they
  /// were delivered over the bus but never inferred). Counted only when
  /// `HubConfig::batch_window > 0`; with no window, frames are not staged
  /// and the lost partial window shows in `staged_bytes_lost` alone.
  std::uint64_t staged_frames_lost = 0;
  /// Staging-buffer bytes discarded by hub crashes, including the partial
  /// window a `batch_window == 0` hub carries between deliveries.
  std::uint64_t staged_bytes_lost = 0;
  /// Hub restarts this session was re-synced through (its config survives
  /// the crash; the staging state does not).
  std::uint64_t fault_resyncs = 0;
  // --- Split execution (docs/architecture.md; zero without a split; the
  // --- leaf's half is `LeafSplitStats`, reported as `NodeReport::split_*`) ---
  /// Adaptive split re-syncs the hub processed for this session.
  std::uint64_t repartitions = 0;
  /// Partial staged windows purged on re-partition (the old boundary size
  /// can no longer complete; counted here, not silently re-interpreted).
  std::uint64_t repartition_dropped_bytes = 0;
};

}  // namespace iob::net
