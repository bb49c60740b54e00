#include "partition/partitioner.hpp"

#include <limits>
#include <sstream>

#include "common/expect.hpp"
#include "nn/quantize.hpp"

namespace iob::partition {

std::string PartitionPlan::describe(const nn::Model& model) const {
  std::ostringstream os;
  const std::size_t n = model.layer_count();
  os << "leaf:[0," << split_leaf_hub << ") hub:[" << split_leaf_hub << "," << split_hub_cloud
     << ") cloud:[" << split_hub_cloud << "," << n << ")";
  if (split_leaf_hub == 0) os << " (full offload)";
  if (split_leaf_hub == n) os << " (all on leaf)";
  return os.str();
}

Partitioner::Partitioner(const nn::Model& model, CostModel cost)
    : model_(model), cost_(std::move(cost)) {
  IOB_EXPECTS(model_.layer_count() >= 1, "model must have layers");
  IOB_EXPECTS(cost_.leaf.energy_per_mac_j >= 0 && cost_.hub.energy_per_mac_j >= 0 &&
                  cost_.cloud.energy_per_mac_j >= 0,
              "venue energies must be non-negative");
  IOB_EXPECTS(cost_.leaf.macs_per_s > 0 && cost_.hub.macs_per_s > 0 && cost_.cloud.macs_per_s > 0,
              "venue throughputs must be positive");
  IOB_EXPECTS(cost_.leaf_hub.app_rate_bps > 0 && cost_.hub_cloud.app_rate_bps > 0,
              "transfer rates must be positive");
}

std::int64_t Partitioner::boundary_bytes(std::size_t split) const {
  IOB_EXPECTS(split <= model_.layer_count(), "split point out of range");
  return nn::activation_wire_bytes(nn::shape_elems(model_.layer_input_shape(split)),
                                   cost_.transport);
}

PartitionPlan Partitioner::evaluate(std::size_t s1, std::size_t s2) const {
  const std::size_t n = model_.layer_count();
  IOB_EXPECTS(s1 <= s2 && s2 <= n, "invalid split points");

  PartitionPlan plan;
  plan.split_leaf_hub = s1;
  plan.split_hub_cloud = s2;

  std::uint64_t leaf_macs = 0, hub_macs = 0, cloud_macs = 0;
  const auto& profiles = model_.profiles();
  for (std::size_t i = 0; i < n; ++i) {
    if (i < s1) {
      leaf_macs += profiles[i].macs;
    } else if (i < s2) {
      hub_macs += profiles[i].macs;
    } else {
      cloud_macs += profiles[i].macs;
    }
  }

  plan.leaf_compute_j = static_cast<double>(leaf_macs) * cost_.leaf.energy_per_mac_j;
  plan.hub_compute_j = static_cast<double>(hub_macs) * cost_.hub.energy_per_mac_j;
  plan.cloud_compute_j = static_cast<double>(cloud_macs) * cost_.cloud.energy_per_mac_j;

  double latency = static_cast<double>(leaf_macs) / cost_.leaf.macs_per_s +
                   static_cast<double>(hub_macs) / cost_.hub.macs_per_s +
                   static_cast<double>(cloud_macs) / cost_.cloud.macs_per_s;

  // Leaf -> hub leg exists whenever any work leaves the leaf (s1 < n). The
  // result coming back is small (classification scores) and is folded into
  // the fixed latency.
  if (s1 < n) {
    plan.bytes_leaf_to_hub = boundary_bytes(s1);
    const double bits = static_cast<double>(plan.bytes_leaf_to_hub) * 8.0;
    plan.leaf_tx_j = bits * cost_.leaf_hub.sender_energy_per_bit_j;
    plan.hub_rx_j = bits * cost_.leaf_hub.receiver_energy_per_bit_j;
    latency += bits / cost_.leaf_hub.app_rate_bps + cost_.leaf_hub.fixed_latency_s;
  }

  // Hub -> cloud leg when any work runs in the cloud.
  if (s2 < n) {
    plan.bytes_hub_to_cloud = boundary_bytes(s2);
    const double bits = static_cast<double>(plan.bytes_hub_to_cloud) * 8.0;
    plan.hub_tx_j = bits * cost_.hub_cloud.sender_energy_per_bit_j;
    latency += bits / cost_.hub_cloud.app_rate_bps + cost_.hub_cloud.fixed_latency_s;
  }

  plan.latency_s = latency;
  return plan;
}

PartitionPlan Partitioner::optimize(Objective objective, double latency_deadline_s) const {
  IOB_EXPECTS(latency_deadline_s > 0, "deadline must be positive");
  const std::size_t n = model_.layer_count();

  PartitionPlan best;
  double best_score = std::numeric_limits<double>::infinity();
  PartitionPlan fastest;
  double fastest_latency = std::numeric_limits<double>::infinity();
  bool any_feasible = false;

  for (std::size_t s1 = 0; s1 <= n; ++s1) {
    for (std::size_t s2 = s1; s2 <= n; ++s2) {
      PartitionPlan plan = evaluate(s1, s2);
      if (plan.latency_s < fastest_latency) {
        fastest_latency = plan.latency_s;
        fastest = plan;
      }
      if (plan.latency_s > latency_deadline_s) continue;
      any_feasible = true;

      double score = 0.0;
      switch (objective) {
        case Objective::kLeafEnergy:
          score = plan.leaf_energy_j();
          break;
        case Objective::kTotalEnergy:
          score = plan.total_energy_j();
          break;
        case Objective::kLatency:
          score = plan.latency_s;
          break;
      }
      if (score < best_score) {
        best_score = score;
        best = plan;
      }
    }
  }

  if (!any_feasible) {
    fastest.feasible = false;
    return fastest;
  }
  return best;
}

PartitionPlan Partitioner::all_on_leaf() const {
  return evaluate(model_.layer_count(), model_.layer_count());
}

PartitionPlan Partitioner::full_offload() const { return evaluate(0, model_.layer_count()); }

}  // namespace iob::partition
