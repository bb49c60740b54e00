// Unit tests for the population-scale streaming path (docs/scaling.md):
// core::OnlineQuantile (exact-regime bit-identity with core::percentile,
// sketch-regime relative-error bound), core::StreamSink (shard rotation,
// header placement, concat == monolithic identity), Fleet::point_at lazy
// decode, and Fleet::run_streaming end-to-end determinism — shards concat to
// the canonical CSV and the folded summary equals the in-memory one at every
// thread count.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/fleet.hpp"
#include "core/stream_sink.hpp"
#include "core/sweep_runner.hpp"
#include "comm/tdma.hpp"
#include "energy/harvester.hpp"

namespace iob {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- helpers ----------------------------------------------------------------

/// Fresh per-test scratch directory under the system temp dir.
std::filesystem::path scratch_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / ("iob_stream_test_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Shards concatenated in emission order.
std::string concat_shards(const core::StreamSink& sink) {
  std::string all;
  for (const auto& p : sink.shard_paths()) all += read_file(p);
  return all;
}

/// Deterministic 64-bit mix (splitmix64) for reproducible sample sets.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit_double(std::uint64_t x) {
  return static_cast<double>(mix64(x) >> 11) * 0x1.0p-53;
}

/// The same tiny two-class population the fleet tests use: cheap to run,
/// exercises shares, sessions and per-node stream naming.
core::NodeMix tiny_mix() {
  core::NodeClassSpec audio;
  audio.base.name = "audio";
  audio.base.sense_power_w = 150e-6;
  audio.base.output_rate_bps = 64e3;
  audio.base.slot_weight = 2;
  audio.share = 1;
  core::NodeClassSpec bio;
  bio.base.name = "bio";
  bio.base.sense_power_w = 8e-6;
  bio.base.output_rate_bps = 5e3;
  bio.share = 3;
  return core::NodeMix{"tiny", {audio, bio}};
}

/// 64-point grid spanning every axis the CSV serializes (two values on six
/// of them), small enough to run many times per test binary.
core::FleetAxes small_axes() {
  core::FleetAxes axes;
  axes.node_counts = {2, 3};
  comm::TdmaConfig short_slot;
  short_slot.slot_s = 600e-6;
  axes.macs = {{"slot-1ms", {}}, {"slot-600us", short_slot}};
  axes.mixes = {tiny_mix()};
  energy::HarvesterParams pv;
  pv.mean_power_w = 50e-6;
  axes.harvests = {{"none", std::nullopt}, {"pv", pv}};
  axes.buses = {core::BusKind::kWiR};
  axes.batch_windows = {0, 1};
  axes.precisions = {nn::Precision::kF32, nn::Precision::kInt8};
  axes.seeds = {7, 9};
  axes.duration_s = 0.5;
  return axes;
}

/// Every field of two summary cells, compared exactly, except the label.
void expect_same_cell(const core::AxisCell& a, const core::AxisCell& b, const std::string& where) {
  EXPECT_EQ(a.points, b.points) << where;
  EXPECT_EQ(a.life_p10_days, b.life_p10_days) << where;
  EXPECT_EQ(a.life_p50_days, b.life_p50_days) << where;
  EXPECT_EQ(a.life_p90_days, b.life_p90_days) << where;
  EXPECT_EQ(a.life_approx, b.life_approx) << where;
  EXPECT_EQ(a.perpetual_fraction, b.perpetual_fraction) << where;
  EXPECT_EQ(a.mean_goodput_bps, b.mean_goodput_bps) << where;
  EXPECT_EQ(a.mean_drop_rate, b.mean_drop_rate) << where;
  EXPECT_EQ(a.mean_latency_s, b.mean_latency_s) << where;
  EXPECT_EQ(a.mean_bus_utilization, b.mean_bus_utilization) << where;
  EXPECT_EQ(a.mean_availability, b.mean_availability) << where;
}

/// Two summaries equal in every cell, labels included.
void expect_same_summary(const core::FleetSummary& a, const core::FleetSummary& b,
                         const std::string& where) {
  EXPECT_EQ(a.total_points, b.total_points) << where;
  EXPECT_EQ(a.overall.label, b.overall.label) << where;
  expect_same_cell(a.overall, b.overall, where + " overall");
  ASSERT_EQ(a.axes.size(), b.axes.size()) << where;
  for (std::size_t x = 0; x < a.axes.size(); ++x) {
    const auto& [name, cells] = a.axes[x];
    EXPECT_EQ(name, b.axes[x].first) << where;
    ASSERT_EQ(cells.size(), b.axes[x].second.size()) << where << " " << name;
    for (std::size_t v = 0; v < cells.size(); ++v) {
      EXPECT_EQ(cells[v].label, b.axes[x].second[v].label) << where << " " << name;
      expect_same_cell(cells[v], b.axes[x].second[v], where + " " + name + " " + cells[v].label);
    }
  }
}

void expect_within_documented_epsilon(double estimate, double exact) {
  if (std::isinf(exact)) {
    EXPECT_TRUE(std::isinf(estimate)) << "exact quantile is +inf, estimate is " << estimate;
    return;
  }
  if (exact == 0.0) {
    EXPECT_EQ(estimate, 0.0);
    return;
  }
  EXPECT_NEAR(estimate, exact, core::OnlineQuantile::kRelativeError * exact)
      << "estimate " << estimate << " vs exact " << exact;
}

// ---- OnlineQuantile ---------------------------------------------------------

TEST(OnlineQuantile, ExactRegimeIsBitIdenticalToPercentile) {
  // Assorted small sample sets, including zeros and +inf, at several sizes
  // below the exact limit: quantile() must equal core::percentile exactly.
  for (const std::size_t n : {1u, 2u, 3u, 7u, 60u, 511u, 512u}) {
    core::OnlineQuantile oq;
    std::vector<double> samples;
    for (std::size_t i = 0; i < n; ++i) {
      double x = 1e-4 + 40.0 * unit_double(1000 * n + i);
      if (i % 11 == 3) x = 0.0;
      if (i % 17 == 5) x = kInf;
      oq.add(x);
      samples.push_back(x);
    }
    EXPECT_FALSE(oq.approximate()) << n;
    EXPECT_EQ(oq.count(), n);
    for (const double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 1.0}) {
      const double want = core::percentile(samples, q);
      const double got = oq.quantile(q);
      if (std::isinf(want)) {
        EXPECT_TRUE(std::isinf(got)) << "n=" << n << " q=" << q;
      } else {
        EXPECT_DOUBLE_EQ(got, want) << "n=" << n << " q=" << q;
      }
    }
  }
}

TEST(OnlineQuantile, SwitchesToSketchPastTheExactLimit) {
  core::OnlineQuantile oq;
  for (std::size_t i = 0; i < core::OnlineQuantile::kExactLimit; ++i) {
    oq.add(1.0 + static_cast<double>(i));
  }
  EXPECT_FALSE(oq.approximate());
  EXPECT_EQ(oq.count(), core::OnlineQuantile::kExactLimit);

  oq.add(0.5);  // one past the limit: migrate to the sketch
  EXPECT_TRUE(oq.approximate());
  EXPECT_EQ(oq.count(), core::OnlineQuantile::kExactLimit + 1);

  // Migration must not lose or duplicate samples, and the estimate must
  // still honor the documented bound.
  std::vector<double> samples;
  for (std::size_t i = 0; i < core::OnlineQuantile::kExactLimit; ++i) {
    samples.push_back(1.0 + static_cast<double>(i));
  }
  samples.push_back(0.5);
  for (const double q : {0.1, 0.5, 0.9}) {
    expect_within_documented_epsilon(oq.quantile(q), core::percentile(samples, q));
  }
}

TEST(OnlineQuantile, SketchHonorsTheDocumentedRelativeErrorBound) {
  // 20k log-uniform samples across nine decades, with exact-band zeros and
  // +inf mixed in — the shape of a fleet lifetime distribution (finite node
  // lives plus perpetual +inf nodes).
  core::OnlineQuantile oq;
  std::vector<double> samples;
  const double lo = std::log(1e-3);
  const double hi = std::log(1e6);
  for (std::size_t i = 0; i < 20000; ++i) {
    double x = std::exp(lo + (hi - lo) * unit_double(i));
    if (i % 50 == 7) x = 0.0;
    if (i % 40 == 11) x = kInf;
    oq.add(x);
    samples.push_back(x);
  }
  EXPECT_TRUE(oq.approximate());
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9}) {
    expect_within_documented_epsilon(oq.quantile(q), core::percentile(samples, q));
  }
  // 1/40 of samples are +inf: the 0.99 quantile is perpetual, and the zero /
  // +inf bands are counted exactly, so the sketch must report +inf exactly.
  EXPECT_TRUE(std::isinf(core::percentile(samples, 0.99)));
  EXPECT_TRUE(std::isinf(oq.quantile(0.99)));
  // Symmetrically, enough zeros exist that the 0.005 quantile is exactly 0.
  EXPECT_EQ(core::percentile(samples, 0.005), 0.0);
  EXPECT_EQ(oq.quantile(0.005), 0.0);
}

TEST(OnlineQuantile, RejectsInvalidSamplesAndQueries) {
  core::OnlineQuantile oq;
  EXPECT_THROW(oq.add(-1.0), std::invalid_argument);
  EXPECT_THROW(oq.add(std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
  EXPECT_THROW((void)oq.quantile(0.5), std::invalid_argument);  // empty
  oq.add(1.0);
  EXPECT_THROW((void)oq.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)oq.quantile(1.1), std::invalid_argument);
}

// ---- StreamSink -------------------------------------------------------------

TEST(StreamSink, RotatesShardsAndConcatenatesByteExact) {
  const auto dir = scratch_dir("rotate");
  core::StreamSinkConfig cfg;
  cfg.directory = dir.string();
  cfg.rows_per_shard = 4;

  std::string monolithic = "a,b\n";
  {
    core::StreamSink sink(cfg);
    sink.write_header("a,b\n");
    for (int i = 0; i < 10; ++i) {
      const std::string row = std::to_string(i) + "," + std::to_string(i * i) + "\n";
      sink.append(row.data(), row.size());
      monolithic += row;
    }
    sink.finish();
    EXPECT_EQ(sink.rows(), 10u);
    EXPECT_EQ(sink.shards(), 3u);  // 4 + 4 + 2 rows
    EXPECT_EQ(sink.bytes(), monolithic.size());

    // Header lives in shard 0 only; later shards start with a data row.
    EXPECT_EQ(read_file(sink.shard_paths()[0]).substr(0, 4), "a,b\n");
    EXPECT_EQ(read_file(sink.shard_paths()[1]).substr(0, 2), "4,");
    EXPECT_EQ(concat_shards(sink), monolithic);
  }
  std::filesystem::remove_all(dir);
}

TEST(StreamSink, ExactMultipleOfShardSizeLeavesNoEmptyTrailingShard) {
  const auto dir = scratch_dir("multiple");
  core::StreamSinkConfig cfg;
  cfg.directory = dir.string();
  cfg.rows_per_shard = 4;

  core::StreamSink sink(cfg);
  for (int i = 0; i < 8; ++i) sink.append("x\n", 2);
  sink.finish();
  EXPECT_EQ(sink.shards(), 2u);
  for (const auto& p : sink.shard_paths()) {
    EXPECT_EQ(std::filesystem::file_size(p), 8u);  // 4 rows x "x\n"
  }
  std::filesystem::remove_all(dir);
}

TEST(StreamSink, BinaryFormatWritesFixedWidthRecords) {
  const auto dir = scratch_dir("binary");
  core::StreamSinkConfig cfg;
  cfg.directory = dir.string();
  cfg.rows_per_shard = 4;
  cfg.format = core::StreamFormat::kBinary;

  core::StreamSink sink(cfg);
  for (std::uint64_t i = 0; i < 5; ++i) {
    core::FleetStreamRecord rec;
    rec.index = i;
    rec.min_life_days = 10.0 * static_cast<double>(i);
    sink.append(&rec, sizeof(rec));
  }
  sink.finish();
  EXPECT_EQ(sink.shards(), 2u);
  EXPECT_EQ(sink.bytes(), 5 * sizeof(core::FleetStreamRecord));
  EXPECT_EQ(sink.shard_paths()[0].substr(sink.shard_paths()[0].size() - 4), ".bin");

  // Round-trip the last record (shard 1, record 0).
  const std::string raw = read_file(sink.shard_paths()[1]);
  ASSERT_EQ(raw.size(), sizeof(core::FleetStreamRecord));
  core::FleetStreamRecord back;
  std::memcpy(&back, raw.data(), sizeof(back));
  EXPECT_EQ(back.index, 4u);
  EXPECT_DOUBLE_EQ(back.min_life_days, 40.0);
  std::filesystem::remove_all(dir);
}

// ---- Fleet::point_at --------------------------------------------------------

TEST(FleetStreaming, PointAtMatchesExpandEverywhere) {
  const core::Fleet fleet(small_axes());
  const auto grid = fleet.expand();
  ASSERT_EQ(grid.size(), fleet.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto p = fleet.point_at(i);
    EXPECT_EQ(p.index, grid[i].index) << i;
    EXPECT_EQ(p.coord, grid[i].coord) << i;
    EXPECT_EQ(p.seed, grid[i].seed) << i;
    EXPECT_EQ(p.node_count, grid[i].node_count) << i;
    EXPECT_EQ(p.mac.label, grid[i].mac.label) << i;
    EXPECT_EQ(p.mix.label, grid[i].mix.label) << i;
    EXPECT_EQ(p.harvest.label, grid[i].harvest.label) << i;
    EXPECT_EQ(p.batch_window, grid[i].batch_window) << i;
    EXPECT_EQ(p.precision, grid[i].precision) << i;
    EXPECT_EQ(p.duration_s, grid[i].duration_s) << i;
  }
}

// ---- Fleet::run_streaming ---------------------------------------------------

TEST(FleetStreaming, ShardsConcatToTheCanonicalCsvWithNonDivisorBatches) {
  const core::Fleet fleet(small_axes());
  const core::SweepRunner serial(1);
  const std::string want = core::fleet_results_csv(fleet.run(serial));

  const auto dir = scratch_dir("concat");
  core::FleetStreamConfig cfg;
  cfg.batch_points = 7;  // 64 points -> batches of 7,7,...,1
  cfg.spill = core::StreamSinkConfig{};
  cfg.spill->directory = dir.string();
  cfg.spill->rows_per_shard = 10;

  const auto res = fleet.run_streaming(serial, cfg);
  EXPECT_EQ(res.points, fleet.size());
  EXPECT_EQ(res.spilled_rows, fleet.size());
  EXPECT_GE(res.spill_shards, 7u);  // 64 rows / 10 per shard

  std::string got;
  for (std::size_t s = 0; s < res.spill_shards; ++s) {
    char name[64];
    std::snprintf(name, sizeof(name), "shard-%05zu.csv", s);
    got += read_file(dir / name);
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(res.spilled_bytes, want.size());
  std::filesystem::remove_all(dir);
}

TEST(FleetStreaming, ByteIdenticalAcrossThreadCountsAndBatchSizes) {
  const core::Fleet fleet(small_axes());
  std::string reference;
  std::string reference_summary;

  for (const std::size_t threads : {1u, 2u, 8u}) {
    for (const std::size_t batch : {16u, 23u}) {
      const auto dir =
          scratch_dir("threads" + std::to_string(threads) + "_" + std::to_string(batch));
      core::FleetStreamConfig cfg;
      cfg.batch_points = batch;
      cfg.spill = core::StreamSinkConfig{};
      cfg.spill->directory = dir.string();
      cfg.spill->rows_per_shard = 25;

      const core::SweepRunner runner(threads);
      const auto res = fleet.run_streaming(runner, cfg);
      std::string csv;
      for (std::size_t s = 0; s < res.spill_shards; ++s) {
        char name[64];
        std::snprintf(name, sizeof(name), "shard-%05zu.csv", s);
        csv += read_file(dir / name);
      }
      const std::string summary = res.summary.to_string();
      if (reference.empty()) {
        reference = csv;
        reference_summary = summary;
      } else {
        EXPECT_EQ(csv, reference) << "threads=" << threads << " batch=" << batch;
        EXPECT_EQ(summary, reference_summary) << "threads=" << threads << " batch=" << batch;
      }
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(FleetStreaming, StreamedSummaryEqualsInMemorySummary) {
  const core::Fleet fleet(small_axes());
  const auto in_memory = fleet.summarize(fleet.run(core::SweepRunner(2)));

  for (const std::size_t threads : {1u, 2u, 8u}) {
    core::FleetStreamConfig cfg;
    cfg.batch_points = 5;  // no spill: fold-only streaming
    const auto streamed = fleet.run_streaming(core::SweepRunner(threads), cfg);
    EXPECT_EQ(streamed.spilled_rows, 0u);
    EXPECT_EQ(streamed.spill_shards, 0u);

    // The 64-point grid keeps every cell in the exact quantile regime, so
    // the streamed summary must equal the in-memory one field for field and
    // render to the same bytes.
    EXPECT_FALSE(streamed.summary.overall.life_approx);
    expect_same_summary(streamed.summary, in_memory, "threads=" + std::to_string(threads));
    EXPECT_EQ(streamed.summary.to_string(), in_memory.to_string()) << "threads=" << threads;
  }
}

// A single-valued axis holds every point, so its one cell is the overall
// cell under the axis value's label, in both the streamed and the in-memory
// summary. small_axes() has six such axes (mix, bus, faults, split,
// interference, motion); a 1-point grid has one value on every axis.
TEST(FleetStreaming, SingleValuedAxisCellEqualsTheOverallCell) {
  core::FleetAxes one_point = small_axes();
  one_point.node_counts.resize(1);
  one_point.macs.resize(1);
  one_point.harvests.resize(1);
  one_point.batch_windows.resize(1);
  one_point.precisions.resize(1);
  one_point.seeds.resize(1);

  for (const auto& [axes, single_valued] :
       {std::pair{small_axes(), std::size_t{6}}, std::pair{one_point, std::size_t{core::kAxisCount}}}) {
    const core::Fleet fleet(axes);
    const auto in_memory = fleet.summarize(fleet.run(core::SweepRunner(1)));
    for (const std::size_t threads : {1u, 2u, 8u}) {
      const std::string where =
          std::to_string(fleet.size()) + " points, threads=" + std::to_string(threads);
      core::FleetStreamConfig cfg;
      cfg.batch_points = 5;
      const auto streamed = fleet.run_streaming(core::SweepRunner(threads), cfg);
      expect_same_summary(streamed.summary, in_memory, where);

      std::size_t checked = 0;
      for (const auto& [name, cells] : streamed.summary.axes) {
        if (cells.size() != 1) {
          EXPECT_EQ(cells.size(), 2u) << where << " " << name;
          continue;
        }
        EXPECT_NE(cells[0].label, streamed.summary.overall.label) << where << " " << name;
        expect_same_cell(cells[0], streamed.summary.overall, where + " " + name);
        ++checked;
      }
      EXPECT_EQ(checked, single_valued) << where;
    }
  }
}

// A point that throws on a worker fails the whole streamed run: the caller
// rethrows it, and returns rather than waiting on a batch that never comes.
// A class with no output rate passes Fleet's checks, but Node's constructor
// rejects it, so every point of the "broken" mix throws when it is built.
// The good mix's points come first, so with 3-point batches the throw lands
// in a later batch while the caller folds and spills an earlier one.
TEST(FleetStreaming, FailingPointRethrowsAtEveryThreadCountAndSpillFormat) {
  core::NodeMix broken = tiny_mix();
  broken.label = "broken";
  broken.classes[1].base.output_rate_bps = 0.0;  // node 1 is the bio class
  core::FleetAxes axes;
  axes.node_counts = {2};
  axes.mixes = {tiny_mix(), broken};
  axes.seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  axes.duration_s = 0.1;
  const core::Fleet fleet(axes);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    for (const core::StreamFormat format : {core::StreamFormat::kCsv, core::StreamFormat::kBinary}) {
      const auto dir = scratch_dir("throw" + std::to_string(threads) +
                                   (format == core::StreamFormat::kCsv ? "csv" : "bin"));
      core::FleetStreamConfig cfg;
      cfg.batch_points = 3;
      cfg.spill = core::StreamSinkConfig{};
      cfg.spill->directory = dir.string();
      cfg.spill->format = format;
      const core::SweepRunner runner(threads);
      EXPECT_THROW((void)fleet.run_streaming(runner, cfg), std::invalid_argument)
          << "threads=" << threads;
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(FleetStreaming, OnlineGridQuantilesStayWithinEpsilonOfExactOn2160Points) {
  // The canonical bench shape: 2,160 points, built here from cheap axes
  // (90 seeds supply the population spread). Node lifetimes overflow the
  // exact regime (> 512 samples overall), so the overall cell must flip to
  // life_approx and still sit within the documented epsilon of the exact
  // sorted-vector quantiles. 3 node counts x 2 harvests x 2 batch windows
  // x 2 precisions x 90 seeds = 2,160.
  core::FleetAxes axes;
  axes.node_counts = {2, 3, 4};
  axes.macs = {{"slot-1ms", {}}};
  axes.mixes = {tiny_mix()};
  energy::HarvesterParams pv;
  pv.mean_power_w = 50e-6;
  axes.harvests = {{"none", std::nullopt}, {"pv", pv}};
  axes.batch_windows = {0, 1};
  axes.precisions = {nn::Precision::kF32, nn::Precision::kInt8};
  axes.seeds.clear();
  for (std::uint64_t s = 0; s < 90; ++s) axes.seeds.push_back(100 + s);
  axes.duration_s = 0.1;
  const core::Fleet fleet(axes);
  ASSERT_EQ(fleet.size(), 2160u);

  const core::SweepRunner runner(2);
  const auto results = fleet.run(runner);
  const auto summary = fleet.summarize(results);

  std::vector<double> lifetimes;
  for (const auto& r : results) {
    for (const auto& node : r.report.nodes) lifetimes.push_back(node.projected_life_days);
  }
  ASSERT_GT(lifetimes.size(), core::OnlineQuantile::kExactLimit);
  EXPECT_TRUE(summary.overall.life_approx);

  expect_within_documented_epsilon(summary.overall.life_p10_days,
                                   core::percentile(lifetimes, 0.10));
  expect_within_documented_epsilon(summary.overall.life_p50_days,
                                   core::percentile(lifetimes, 0.50));
  expect_within_documented_epsilon(summary.overall.life_p90_days,
                                   core::percentile(lifetimes, 0.90));

  // The rendered table marks sketch-backed cells and explains the marker.
  const std::string table = summary.to_string();
  EXPECT_NE(table.find('~'), std::string::npos);
  EXPECT_NE(table.find("online-quantile estimate"), std::string::npos);
}

}  // namespace
}  // namespace iob
