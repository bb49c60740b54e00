#pragma once
/// \file body_motion.hpp
/// Body-motion channel process: a small continuous-time Markov chain over
/// posture/gait states (still / walk / run / occlusion) whose current state
/// adds a path-gain delta (dB) to the link budget — the wearer moving is
/// what turns a constant FER into a time-varying trace (docs/robustness.md).
///
/// EQS/NFMI body channels are exquisitely posture-dependent: limb swing
/// modulates the return path, and an arm crossing the torso can occlude a
/// wrist-to-chest link by tens of dB for a fraction of a second. The chain
/// models exactly that granularity — seconds-scale sojourns in gait states,
/// sub-second occlusion dips — and advances lazily like
/// `comm::GilbertElliott`: state is evolved only when queried, queries must
/// be non-decreasing in time, and all draws come from the process's own
/// forked `sim::Rng` stream so installing motion never perturbs MAC or
/// traffic randomness.

#include <array>
#include <cstddef>
#include <cstdint>

#include "sim/rng.hpp"

namespace iob::phy {

enum class MotionState : std::uint8_t { kStill = 0, kWalk, kRun, kOcclusion };
inline constexpr std::size_t kMotionStateCount = 4;

/// Per-state dynamics: how long the wearer dwells there, what it does to
/// the link, and where they go next.
struct MotionStateParams {
  double mean_sojourn_s = 1.0;
  /// Path-gain delta while in this state, dB (<= 0 degrades the link).
  double gain_delta_db = 0.0;
  /// Transition distribution over successor states (self-weight ignored;
  /// weights are normalized, so rows need not sum to 1).
  std::array<double, kMotionStateCount> next{};
};

struct BodyMotionParams {
  std::array<MotionStateParams, kMotionStateCount> states{};
  MotionState initial = MotionState::kStill;
  /// Tests only: every sojourn equals its state's mean exactly instead of
  /// drawing from the exponential, making traces hand-computable.
  bool deterministic_sojourns = false;

  /// Canonical defaults: a mixed still/walk day with rare occlusions.
  BodyMotionParams();
};

/// A running wearer: short, vigorous gait sojourns and frequent arm-swing
/// occlusions — the hostile end of the motion axis.
[[nodiscard]] BodyMotionParams running_profile();

class BodyMotionProcess {
 public:
  BodyMotionProcess(BodyMotionParams params, sim::Rng rng);

  /// Path-gain delta (dB) the link sees at time `t`. Times must be
  /// non-decreasing across calls (lazy advance, like `comm::GilbertElliott`).
  [[nodiscard]] double gain_delta_db(double t);

  /// Completed state transitions so far.
  [[nodiscard]] std::uint64_t transitions() const { return transitions_; }

  /// Seconds accumulated per state over *completed* sojourns (the open
  /// sojourn is excluded until it ends — hand-computed tests account for
  /// this).
  [[nodiscard]] const std::array<double, kMotionStateCount>& occupancy_s() const {
    return occupancy_;
  }

 private:
  void advance_to(double t);
  [[nodiscard]] double draw_sojourn(MotionState s);
  [[nodiscard]] MotionState draw_next(MotionState s);

  BodyMotionParams params_{};
  sim::Rng rng_;
  MotionState state_;
  double sojourn_s_ = 0.0;  ///< length of the current (open) sojourn
  double state_end_ = 0.0;  ///< sim time the current sojourn expires
  std::uint64_t transitions_ = 0;
  std::array<double, kMotionStateCount> occupancy_{};
};

}  // namespace iob::phy
