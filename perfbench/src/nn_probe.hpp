#pragma once
/// \file nn_probe.hpp
/// The `nn` layer measured from outside: timed calls into
/// `Model::run_range_into` and `QuantizedModel::run_range_into` per lowered
/// op and per whole model, plus the chained-replay bit-exactness check.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "metrics.hpp"
#include "nn/model.hpp"
#include "nn/qmodel.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

/// The hub workloads' two session models and their int8 lowerings.
struct Zoo {
  Zoo();
  Zoo(const Zoo&) = delete;
  Zoo& operator=(const Zoo&) = delete;

  iob::nn::Model kws;
  iob::nn::Model ecg;
  iob::nn::QuantizedModel qkws;  ///< borrows `kws`
  iob::nn::QuantizedModel qecg;  ///< borrows `ecg`
};

/// Op boundaries of a model: every feasible int8 cut below layer_count(),
/// then layer_count(). Op k runs layers [k, next boundary) — a fused
/// conv+relu pair is one op. Both precisions use the same boundaries.
std::vector<std::size_t> op_boundaries(const iob::nn::QuantizedModel& q);

/// The nn per-layer metrics. With `measure` false every name is returned
/// with value 0 (workloads that run no inference). Measuring also runs the
/// chained-replay check at batch 32 into `out`.
std::vector<NamedValue> nn_layer_metrics(const Zoo& zoo, std::uint64_t seed, bool measure,
                                         Tracer* tracer, Outcome& out);

/// Chained per-op replay equals the whole-range call bit for bit, for both
/// models at both precisions, at `batch` items.
void check_nn_chains(const Zoo& zoo, std::uint64_t seed, int batch, Outcome& out);

}  // namespace perfbench
