#pragma once
/// \file mac_stats.hpp
/// Shared accounting structures for MAC protocols (TDMA, polling, CSMA).

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hpp"

namespace iob::comm {

struct MacNodeStats {
  std::string name;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_retried = 0;
  std::uint64_t bytes_delivered = 0;
  sim::Accumulator latency_s;     ///< creation -> delivery (uplink)
  double tx_energy_j = 0.0;       ///< node-side transmit energy
  double rx_energy_j = 0.0;       ///< node-side receive energy (beacons/polls)
  // Downlink (hub -> this node: actuation/audio-out traffic).
  std::uint64_t downlink_frames = 0;
  std::uint64_t downlink_bytes = 0;
  sim::Accumulator downlink_latency_s;
  // Drop taxonomy: every dropped frame lands in exactly one bucket, and
  // `frames_dropped()` is their sum. `dropped_arq` is ARQ (or collision)
  // retry exhaustion; `dropped_fault` is frames purged when the node browns
  // out or a downlink hits a powered-off node; `dropped_overflow` is the
  // store-and-retry buffer overflowing while the hub is down;
  // `dropped_overflow_clean` is the queue overflowing under normal
  // operation (a saturated schedule; a full downlink queue is charged to
  // the destination node the same way); `dropped_shed` is frames the
  // degradation controller deliberately never offered to the schedule
  // (net::DegradationController duty-cycle shedding — each one is airtime
  // bought back for frames that do fly).
  std::uint64_t frames_dropped_arq = 0;
  std::uint64_t frames_dropped_fault = 0;
  std::uint64_t frames_dropped_overflow = 0;
  std::uint64_t frames_dropped_overflow_clean = 0;
  std::uint64_t frames_dropped_shed = 0;
  [[nodiscard]] std::uint64_t frames_dropped() const {
    return frames_dropped_arq + frames_dropped_fault + frames_dropped_overflow +
           frames_dropped_overflow_clean + frames_dropped_shed;
  }
  /// Full-queue rejections, hub up or down.
  [[nodiscard]] std::uint64_t queue_overflows() const {
    return frames_dropped_overflow + frames_dropped_overflow_clean;
  }
  // Channel-health observables for the degradation control loop
  // (docs/robustness.md): per-superframe EWMAs of this node's delivery
  // ratio (delivered / attempts) and retry rate (retries / attempts),
  // updated only for superframes where the node attempted traffic.
  double delivery_ratio_ewma = 1.0;
  double retry_rate_ewma = 0.0;
};

struct MacStats {
  std::vector<MacNodeStats> nodes;
  double hub_tx_energy_j = 0.0;   ///< beacons / polls / acks
  double hub_rx_energy_j = 0.0;   ///< data reception
  double busy_airtime_s = 0.0;    ///< medium occupied
  double elapsed_s = 0.0;
  /// Superframes elided because the hub was down (no beacon, no slots);
  /// leaves store-and-retry through these. Zero on the clean path.
  std::uint64_t superframes_skipped = 0;

  [[nodiscard]] double utilization() const {
    return elapsed_s > 0.0 ? busy_airtime_s / elapsed_s : 0.0;
  }
  [[nodiscard]] std::uint64_t total_bytes_delivered() const {
    std::uint64_t sum = 0;
    for (const auto& n : nodes) sum += n.bytes_delivered;
    return sum;
  }
  [[nodiscard]] double aggregate_goodput_bps() const {
    return elapsed_s > 0.0 ? static_cast<double>(total_bytes_delivered()) * 8.0 / elapsed_s : 0.0;
  }
};

}  // namespace iob::comm
