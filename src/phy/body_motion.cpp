#include "phy/body_motion.hpp"

#include "common/expect.hpp"

namespace iob::phy {

BodyMotionParams::BodyMotionParams() {
  auto& st = states[static_cast<std::size_t>(MotionState::kStill)];
  st.mean_sojourn_s = 5.0;
  st.gain_delta_db = 0.0;
  st.next = {0.0, 0.85, 0.05, 0.10};
  auto& wk = states[static_cast<std::size_t>(MotionState::kWalk)];
  wk.mean_sojourn_s = 3.0;
  wk.gain_delta_db = -3.0;
  wk.next = {0.55, 0.0, 0.30, 0.15};
  auto& rn = states[static_cast<std::size_t>(MotionState::kRun)];
  rn.mean_sojourn_s = 2.0;
  rn.gain_delta_db = -9.0;
  rn.next = {0.05, 0.60, 0.0, 0.35};
  auto& oc = states[static_cast<std::size_t>(MotionState::kOcclusion)];
  oc.mean_sojourn_s = 0.4;
  oc.gain_delta_db = -18.0;
  oc.next = {0.40, 0.35, 0.25, 0.0};
}

BodyMotionParams running_profile() {
  BodyMotionParams p;
  p.initial = MotionState::kRun;
  auto& st = p.states[static_cast<std::size_t>(MotionState::kStill)];
  st.mean_sojourn_s = 2.0;
  st.next = {0.0, 0.50, 0.40, 0.10};
  auto& wk = p.states[static_cast<std::size_t>(MotionState::kWalk)];
  wk.mean_sojourn_s = 1.5;
  wk.next = {0.10, 0.0, 0.60, 0.30};
  auto& rn = p.states[static_cast<std::size_t>(MotionState::kRun)];
  rn.mean_sojourn_s = 4.0;
  // Arm-swing occlusions dominate the run state's exits.
  rn.next = {0.02, 0.28, 0.0, 0.70};
  auto& oc = p.states[static_cast<std::size_t>(MotionState::kOcclusion)];
  oc.mean_sojourn_s = 0.35;
  oc.next = {0.05, 0.15, 0.80, 0.0};
  return p;
}

BodyMotionProcess::BodyMotionProcess(BodyMotionParams params, sim::Rng rng)
    : params_(params), rng_(rng), state_(params.initial) {
  for (const auto& s : params_.states) {
    IOB_EXPECTS(s.mean_sojourn_s > 0.0, "motion sojourn means must be positive");
    double total = 0.0;
    for (double w : s.next) {
      IOB_EXPECTS(w >= 0.0, "motion transition weights cannot be negative");
      total += w;
    }
    IOB_EXPECTS(total > 0.0, "every motion state needs at least one successor");
  }
  sojourn_s_ = draw_sojourn(state_);
  state_end_ = sojourn_s_;
}

double BodyMotionProcess::draw_sojourn(MotionState s) {
  const auto& p = params_.states[static_cast<std::size_t>(s)];
  return params_.deterministic_sojourns ? p.mean_sojourn_s
                                        : rng_.exponential(p.mean_sojourn_s);
}

MotionState BodyMotionProcess::draw_next(MotionState s) {
  const auto& row = params_.states[static_cast<std::size_t>(s)].next;
  double total = 0.0;
  for (std::size_t i = 0; i < kMotionStateCount; ++i) {
    if (i != static_cast<std::size_t>(s)) total += row[i];
  }
  // One draw per transition even when the row is one-hot, so deterministic
  // tests and stochastic runs consume the stream identically.
  double u = rng_.uniform() * total;
  for (std::size_t i = 0; i < kMotionStateCount; ++i) {
    if (i == static_cast<std::size_t>(s)) continue;
    u -= row[i];
    if (u < 0.0) return static_cast<MotionState>(i);
  }
  // Rounding fell off the end: last positive-weight successor.
  for (std::size_t i = kMotionStateCount; i-- > 0;) {
    if (i != static_cast<std::size_t>(s) && row[i] > 0.0) {
      return static_cast<MotionState>(i);
    }
  }
  return s;  // unreachable (ctor requires a successor)
}

void BodyMotionProcess::advance_to(double t) {
  while (state_end_ < t) {
    // Close the expiring sojourn before transitioning.
    occupancy_[static_cast<std::size_t>(state_)] += sojourn_s_;
    state_ = draw_next(state_);
    ++transitions_;
    sojourn_s_ = draw_sojourn(state_);
    state_end_ += sojourn_s_;
  }
}

double BodyMotionProcess::gain_delta_db(double t) {
  advance_to(t);
  return params_.states[static_cast<std::size_t>(state_)].gain_delta_db;
}

}  // namespace iob::phy
