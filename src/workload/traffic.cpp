#include "workload/traffic.hpp"

#include <utility>

#include "common/expect.hpp"

namespace iob::workload {

PeriodicSource::PeriodicSource(sim::Simulator& sim, double period_s, std::uint32_t payload_bytes,
                               TrafficSink sink, double start_s)
    : period_s_(period_s), payload_bytes_(payload_bytes), sink_(std::move(sink)) {
  IOB_EXPECTS(period_s_ > 0.0, "period must be positive");
  IOB_EXPECTS(payload_bytes_ > 0, "payload must be non-empty");
  IOB_EXPECTS(static_cast<bool>(sink_), "sink must be callable");
  sim.every(start_s, period_s_, [this](sim::Time t) {
    if (stopped_) return;
    ++emitted_;
    sink_(t, payload_bytes_);
  });
}

PoissonSource::PoissonSource(sim::Simulator& sim, double rate_per_s, std::uint32_t payload_bytes,
                             TrafficSink sink, double start_s)
    : rate_per_s_(rate_per_s),
      payload_bytes_(payload_bytes),
      sink_(std::move(sink)),
      rng_(sim.rng().fork(0x9055)),
      sim_(&sim) {
  IOB_EXPECTS(rate_per_s_ > 0.0, "rate must be positive");
  IOB_EXPECTS(payload_bytes_ > 0, "payload must be non-empty");
  IOB_EXPECTS(static_cast<bool>(sink_), "sink must be callable");
  sim.at(start_s + rng_.exponential(1.0 / rate_per_s_), [this] {
    if (stopped_) return;
    ++emitted_;
    sink_(sim_->now(), payload_bytes_);
    schedule_next(*sim_);
  });
}

void PoissonSource::schedule_next(sim::Simulator& sim) {
  sim.after(rng_.exponential(1.0 / rate_per_s_), [this] {
    if (stopped_) return;
    ++emitted_;
    sink_(sim_->now(), payload_bytes_);
    schedule_next(*sim_);
  });
}

}  // namespace iob::workload
