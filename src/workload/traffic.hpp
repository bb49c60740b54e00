#pragma once
/// \file traffic.hpp
/// Traffic sources that drive the DES network: periodic (sensor sampling
/// batches) and Poisson (event-driven, e.g. user queries) arrival
/// processes producing fixed-size payloads.

#include <cstdint>
#include <functional>

#include "sim/simulator.hpp"

namespace iob::workload {

/// Callback invoked per generated message: (created_at, payload_bytes).
using TrafficSink = std::function<void(sim::Time, std::uint32_t)>;

/// Emits `payload_bytes` every `period_s`, starting at `start_s`.
/// Equivalent offered load = 8 * payload_bytes / period_s bps.
class PeriodicSource {
 public:
  PeriodicSource(sim::Simulator& sim, double period_s, std::uint32_t payload_bytes,
                 TrafficSink sink, double start_s = 0.0);

  void stop() { stopped_ = true; }
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }

 private:
  double period_s_;
  std::uint32_t payload_bytes_;
  TrafficSink sink_;
  bool stopped_ = false;
  std::uint64_t emitted_ = 0;
};

/// Emits `payload_bytes` at exponentially-distributed intervals with mean
/// rate `rate_per_s`.
class PoissonSource {
 public:
  PoissonSource(sim::Simulator& sim, double rate_per_s, std::uint32_t payload_bytes,
                TrafficSink sink, double start_s = 0.0);

  void stop() { stopped_ = true; }
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }

 private:
  void schedule_next(sim::Simulator& sim);

  double rate_per_s_;
  std::uint32_t payload_bytes_;
  TrafficSink sink_;
  bool stopped_ = false;
  std::uint64_t emitted_ = 0;
  sim::Rng rng_;
  sim::Simulator* sim_;
};

}  // namespace iob::workload
