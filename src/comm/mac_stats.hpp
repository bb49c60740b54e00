#pragma once
/// \file mac_stats.hpp
/// Shared accounting structures for MAC protocols (TDMA, polling).

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hpp"

namespace iob::comm {

struct MacNodeStats {
  std::string name;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_retried = 0;
  std::uint64_t bytes_delivered = 0;
  sim::Accumulator latency_s;     ///< creation -> delivery (uplink)
  double tx_energy_j = 0.0;       ///< node-side transmit energy
  double rx_energy_j = 0.0;       ///< node-side receive energy (beacons/polls)
  std::uint64_t queue_overflows = 0;
  // Downlink (hub -> this node: actuation/audio-out traffic).
  std::uint64_t downlink_frames = 0;
  std::uint64_t downlink_bytes = 0;
  sim::Accumulator downlink_latency_s;
  // Drop taxonomy: frames_dropped == dropped_arq + dropped_fault +
  // dropped_overflow + dropped_overflow_clean + dropped_shed, always.
  // `dropped_arq` is ARQ retry exhaustion; `dropped_fault` is frames purged
  // when the node browns out or a downlink hits a powered-off node;
  // `dropped_overflow` is the store-and-retry buffer overflowing while the
  // hub is down; `dropped_overflow_clean` is the queue overflowing under
  // normal operation (a saturated schedule — every overflow now lands in
  // exactly one bucket, hub up or down; a full downlink queue is charged
  // to the destination node the same way); `dropped_shed` is frames the
  // degradation controller deliberately never offered to the schedule
  // (net::DegradationController duty-cycle shedding — each one is airtime
  // bought back for frames that do fly).
  std::uint64_t frames_dropped_arq = 0;
  std::uint64_t frames_dropped_fault = 0;
  std::uint64_t frames_dropped_overflow = 0;
  std::uint64_t frames_dropped_overflow_clean = 0;
  std::uint64_t frames_dropped_shed = 0;
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
