#pragma once
/// \file adaptive_split.hpp
/// Closed-loop split-point controller: the runtime counterpart of
/// `Partitioner` for a leaf that must survive a target mission time. It
/// steps the *partition point* — how many model layers run on-body before
/// the activation ships to the hub — along the energy glide path. Harvesting
/// surplus pulls computation onto the leaf (small activations, short radio
/// time); a sagging battery pushes layers back to the hub. Same discipline
/// as every other subsystem: the decision depends only on battery state and
/// elapsed time, so simulations remain deterministic and seed-forked.

#include <cstddef>
#include <vector>

#include "energy/battery.hpp"
#include "partition/partitioner.hpp"

namespace iob::partition {

/// One selectable split point with its leaf-side power at the deployment's
/// inference rate (compute energy for layers [0, split_at) plus the TX cost
/// of the boundary activation, times inferences per second).
struct SplitCandidate {
  std::size_t split_at = 0;   ///< k: first layer that runs on the hub
  double leaf_power_w = 0.0;  ///< leaf power draw this split sustains
};

/// The power budget (W) that exactly survives the remaining mission from the
/// given battery state, `elapsed_s` into a mission of `mission_time_s`
/// (+inf once the mission is over).
[[nodiscard]] double glide_power_w(const energy::Battery& battery, double elapsed_s,
                                   double mission_time_s);

struct AdaptiveSplitConfig {
  /// Candidates ordered by non-increasing leaf power: index 0 is the
  /// deployment's preferred (richest on-leaf) split, later entries shed
  /// leaf load. `candidates_from` builds this list from a `Partitioner`.
  std::vector<SplitCandidate> candidates;
  double mission_time_s = 30.0 * 86400.0;  ///< required node lifetime
  /// Hysteresis margin: step down when the glide path is missed, back up
  /// only when the richer candidate fits by this factor (no flapping).
  double hysteresis = 1.15;
};

class AdaptiveSplitController {
 public:
  explicit AdaptiveSplitController(AdaptiveSplitConfig config);

  /// Decide the split for the moment: `elapsed_s` into the mission with the
  /// battery at `battery`. Returns the selected candidate index (sticky —
  /// only moves when the hysteresis band is crossed).
  std::size_t update(const energy::Battery& battery, double elapsed_s);

  [[nodiscard]] const SplitCandidate& current() const {
    return config_.candidates[current_];
  }
  [[nodiscard]] std::size_t current_index() const { return current_; }
  [[nodiscard]] const SplitCandidate& candidate(std::size_t i) const {
    return config_.candidates.at(i);
  }
  [[nodiscard]] std::size_t candidate_count() const { return config_.candidates.size(); }

  /// Build the candidate list from the analytic cost model: every split
  /// point k of the partitioner's model, priced as
  /// `plan(k).leaf_energy_j() * inference_hz`, sorted by non-increasing
  /// leaf power and thinned to strictly decreasing entries (of equal-power
  /// splits the smallest k is kept). Deterministic.
  [[nodiscard]] static std::vector<SplitCandidate> candidates_from(const Partitioner& part,
                                                                   double inference_hz);

 private:
  AdaptiveSplitConfig config_;
  std::size_t current_ = 0;
};

}  // namespace iob::partition
