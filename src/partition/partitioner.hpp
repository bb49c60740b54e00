#pragma once
/// \file partitioner.hpp
/// DNN partitioning across leaf / hub / cloud: pick the two split points
/// (s1, s2) so layers [0, s1) run on the leaf, [s1, s2) on the hub and
/// [s2, n) in the cloud, minimizing the chosen objective subject to a
/// latency deadline. This optimizer *is* the architectural argument of the
/// paper made executable: with BLE-class transfer energy the optimum pulls
/// compute onto the node (today's wearables); with Wi-R-class energy the
/// optimum is full offload to the wearable brain (s1 = 0) — the A1 bench
/// sweeps exactly this.

#include <cstdint>
#include <string>
#include <vector>

#include "nn/model.hpp"
#include "partition/cost_model.hpp"

namespace iob::partition {

enum class Objective {
  kLeafEnergy,   ///< minimize leaf-node energy per inference (battery life)
  kTotalEnergy,  ///< minimize system energy per inference
  kLatency,      ///< minimize end-to-end latency
};

struct PartitionPlan {
  std::size_t split_leaf_hub = 0;   ///< s1: first layer on the hub
  std::size_t split_hub_cloud = 0;  ///< s2: first layer in the cloud (== n: none)

  double leaf_compute_j = 0.0;
  double leaf_tx_j = 0.0;
  double hub_compute_j = 0.0;
  double hub_rx_j = 0.0;
  double hub_tx_j = 0.0;
  double cloud_compute_j = 0.0;
  double latency_s = 0.0;
  std::int64_t bytes_leaf_to_hub = 0;
  std::int64_t bytes_hub_to_cloud = 0;
  bool feasible = true;  ///< meets the deadline

  [[nodiscard]] double leaf_energy_j() const { return leaf_compute_j + leaf_tx_j; }
  [[nodiscard]] double total_energy_j() const {
    return leaf_energy_j() + hub_compute_j + hub_rx_j + hub_tx_j + cloud_compute_j;
  }
  [[nodiscard]] std::string describe(const nn::Model& model) const;
};

class Partitioner {
 public:
  Partitioner(const nn::Model& model, CostModel cost);

  /// Cost of a specific (s1, s2) split; s1 <= s2 <= layer_count().
  [[nodiscard]] PartitionPlan evaluate(std::size_t split_leaf_hub,
                                       std::size_t split_hub_cloud) const;

  /// Exhaustive optimum over all (s1, s2) pairs (O(n^2) with n ~ 25 layers).
  /// Infeasible plans (deadline violations) are skipped unless *no* plan is
  /// feasible, in which case the latency-minimal plan is returned with
  /// `feasible == false`.
  [[nodiscard]] PartitionPlan optimize(Objective objective,
                                       double latency_deadline_s = 1e9) const;

  /// All-on-leaf and all-on-hub reference plans (the two poles of Fig. 1).
  [[nodiscard]] PartitionPlan all_on_leaf() const;
  [[nodiscard]] PartitionPlan full_offload() const;

  [[nodiscard]] const nn::Model& model() const { return model_; }
  [[nodiscard]] const CostModel& cost() const { return cost_; }

  /// Bytes crossing the boundary *into* layer `split` (0 <= split <=
  /// layer_count(): `nn::Model::layer_input_shape(split)`), priced at the cost
  /// model's transport precision in the executable wire format
  /// (`nn::activation_wire_bytes`): int8 transport carries an 8-byte affine
  /// params header ahead of the 1 B/element payload, f32 ships raw floats.
  /// The split differential test holds this equal to the byte size of the
  /// actually serialized boundary tensor.
  [[nodiscard]] std::int64_t boundary_bytes(std::size_t split) const;

 private:
  const nn::Model& model_;
  CostModel cost_;
};

}  // namespace iob::partition
