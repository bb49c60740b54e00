// Fleet-scale design-space sweep (ROADMAP "fleet harness" item): a
// declarative grid of full `net::NetworkSim` discrete-event simulations —
// node count x MAC variant x leaf population mix x harvesting profile x
// batch window x hub precision x fault regime x replicate seeds — expanded
// and fanned across `core::SweepRunner` by
// `core::Fleet`, then folded into per-axis marginal summaries (lifetime
// percentiles, goodput, drop rate, bus utilization, availability). This is
// the paper's system-level claim probed as a region, not a point: >= 2,000
// independent simulations per run, now including the robustness regimes
// (docs/robustness.md) where the clean-channel assumptions break.
//
// Set IOB_FLEET_SMOKE=1 (CI docs job) to shrink the grid to <= 64 points so
// the harness stays exercised on every push without the full sweep cost.
//
// A second, population-scale section streams a 1,000,000-point grid through
// `Fleet::run_streaming` (docs/scaling.md): bounded batches overlap
// execution with online summary folding, per-point records spill to binary
// shards, and peak RSS stays O(batch), not O(grid). Set
// IOB_FLEET_STREAM_SMOKE=1 to shrink it to 100,224 points; on its own (CI
// matrix legs) that also skips the classic grid + microbenchmarks, while
// combined with IOB_FLEET_SMOKE=1 (CI docs job) both sections run in their
// smoke shapes. The section then streams the 100,224-point shape once more
// with CSV spill (`fleet_stream_csv_points_per_s`).

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench_util.hpp"
#include "common/expect.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/fleet.hpp"
#include "core/stream_sink.hpp"
#include "core/sweep_runner.hpp"
#include "nn/precision.hpp"

namespace {

using namespace iob;
using namespace iob::units;

core::NodeClassSpec audio_class() {
  core::NodeClassSpec c;
  c.base.name = "audio";
  c.base.sense_power_w = 150e-6;
  c.base.isa_power_w = 1e-6;
  c.base.output_rate_bps = 64e3;
  c.base.frame_bytes = 240;
  c.base.slot_weight = 2;  // rate-proportional TDMA allocation
  net::SessionConfig kws;
  kws.macs_per_inference = 2'500'000;  // KWS DS-CNN-class pass
  kws.bytes_per_inference = 16'000;    // one 2 s audio window at 64 kb/s
  kws.model = "kws-dscnn";             // concurrent audio sessions share one pass
  kws.weight_bytes = 22'604;           // int8 DS-CNN weights streamed per pass
  c.session = kws;
  return c;
}

core::NodeClassSpec bio_class() {
  core::NodeClassSpec c;
  c.base.name = "bio";
  c.base.sense_power_w = 8e-6;
  c.base.isa_power_w = 1e-6;
  c.base.output_rate_bps = 5e3;
  c.base.frame_bytes = 240;
  return c;
}

core::NodeClassSpec imu_class() {
  core::NodeClassSpec c;
  c.base.name = "imu";
  c.base.sense_power_w = 60e-6;
  c.base.isa_power_w = 2e-6;
  c.base.output_rate_bps = 20e3;
  c.base.frame_bytes = 240;
  return c;
}

core::FleetAxes make_axes(bool smoke) {
  core::FleetAxes axes;

  core::NodeClassSpec audio = audio_class(), bio = bio_class(), imu = imu_class();
  audio.share = 1;
  bio.share = 7;
  axes.mixes.push_back({"bio-heavy", {audio, bio}});
  audio.share = 1;
  bio.share = 1;
  axes.mixes.push_back({"audio-heavy", {audio, bio}});
  imu.share = 3;
  bio.share = 5;
  axes.mixes.push_back({"imu-fusion", {imu, bio}});

  comm::TdmaConfig slot1ms;  // defaults: 1 ms slots, pure uplink
  comm::TdmaConfig slot600us;
  slot600us.slot_s = 600e-6;
  comm::TdmaConfig downlink = slot1ms;
  downlink.downlink_slot_s = 500e-6;
  axes.macs = {{"slot-1ms", slot1ms}, {"slot-600us", slot600us}, {"downlink-500us", downlink}};

  energy::HarvesterParams pv;
  pv.source = energy::HarvestSource::kIndoorPhotovoltaic;
  pv.mean_power_w = 50.0 * uW;
  pv.availability = 0.7;
  pv.hourly_profile = energy::office_diurnal_profile();
  energy::HarvesterParams teg;
  teg.source = energy::HarvestSource::kThermoelectric;
  teg.mean_power_w = 25.0 * uW;
  teg.availability = 0.9;
  teg.relative_sigma = 0.1;
  axes.harvests = {{"none", std::nullopt}, {"indoor-pv-50uW", pv}, {"teg-25uW", teg}};

  axes.buses = {core::BusKind::kWiR};

  // Hub batching axis: per-frame inference vs an 8-superframe staging
  // window (concurrent KWS sessions fold into one batched pass).
  axes.batch_windows = {0, 8};

  // Hub precision axis: f32 hubs vs int8 hubs (the analytic ledger prices
  // int8 MACs at HubConfig::int8_mac_energy_scale; weight streaming is
  // int8-priced on both).
  axes.precisions = {nn::Precision::kF32, nn::Precision::kInt8};

  if (smoke) {
    // <= 64-point CI configuration: 1 x 2 x 2 x 2 x 1 x 2 x 2 x 2 x 1 = 64
    // points (fault axis: clean path + the combined stressor).
    axes.node_counts = {8};
    axes.macs.resize(2);
    axes.mixes.resize(2);
    axes.harvests.resize(2);
    axes.faults = {core::FaultVariant::kNone, core::FaultVariant::kCombined};
    axes.seeds = {42};
    axes.duration_s = 2.0;
  } else {
    // 4 x 3 x 3 x 3 x 1 x 2 x 2 x 5 x 1 = 2,160 points: the seed replicates
    // became the five canonical fault regimes (point_seed still decorrelates
    // every point, so a single seed value loses no statistical independence).
    axes.node_counts = {2, 8, 16, 32};
    axes.faults = {core::FaultVariant::kNone, core::FaultVariant::kBrownout,
                   core::FaultVariant::kHubFlap, core::FaultVariant::kBurstLoss,
                   core::FaultVariant::kCombined};
    axes.seeds = {42};
    axes.duration_s = 4.0;
  }
  return axes;
}

/// Peak resident set of this process so far, in MiB (0 where unsupported).
double peak_rss_mb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);  // bytes
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
#endif
#else
  return 0.0;
#endif
}

/// The documented OnlineQuantile contract, asserted on live data: the
/// summary's online lifetime percentiles must sit within kRelativeError of
/// the exact sorted-vector quantiles recomputed from the full result set
/// (exact bands — zero and +inf — must match outright).
void assert_quantile_epsilon(const core::FleetSummary& summary,
                             const std::vector<core::FleetPointResult>& results) {
  std::vector<double> lifetimes;
  for (const auto& r : results) {
    for (const auto& n : r.report.nodes) lifetimes.push_back(n.projected_life_days);
  }
  const double qs[] = {0.10, 0.50, 0.90};
  const double got[] = {summary.overall.life_p10_days, summary.overall.life_p50_days,
                        summary.overall.life_p90_days};
  for (int i = 0; i < 3; ++i) {
    const double exact = core::percentile(lifetimes, qs[i]);
    if (std::isinf(exact) || exact == 0.0) {
      IOB_ENSURES(got[i] == exact, "online quantile must be exact in the zero/+inf bands");
    } else {
      IOB_ENSURES(std::abs(got[i] - exact) <= core::OnlineQuantile::kRelativeError * exact,
                  "online lifetime quantile outside the documented epsilon");
    }
  }
  common::print_note("online p10/p50/p90 lifetimes verified within " +
                     common::fixed(core::OnlineQuantile::kRelativeError * 100.0, 0) +
                     "% of exact sorted-vector quantiles");
}

void print_grid(bench::JsonReporter& json) {
  const bool smoke = std::getenv("IOB_FLEET_SMOKE") != nullptr;
  const core::Fleet fleet(make_axes(smoke));
  common::print_banner(
      "Fleet grid — " + std::to_string(fleet.size()) +
      " NetworkSim points (node count x MAC x mix x harvesting x batch x precision x faults x "
      "seed)" +
      (smoke ? " [smoke]" : ""));

  const core::SweepRunner runner;
  const double t0 = bench::wall_time_s();
  const std::vector<core::FleetPointResult> results = fleet.run(runner);
  const double dt = bench::wall_time_s() - t0;
  const core::FleetSummary summary = fleet.summarize(results);

  std::cout << summary.to_string();
  common::print_note("lifetime percentiles over every node sample in the cell; the wide");
  common::print_note("regime where bio leaves stay perpetual is the paper's design region");
  assert_quantile_epsilon(summary, results);
  std::cout << "\n  " << results.size() << " simulations in " << common::fixed(dt, 2) << " s ("
            << common::fixed(static_cast<double>(results.size()) / dt, 1) << " points/s on "
            << runner.threads() << " thread(s))\n";

  json.add("fleet_points", static_cast<double>(results.size()));
  json.add("fleet_points_per_s", static_cast<double>(results.size()) / dt);
  json.add("fleet_threads", static_cast<double>(runner.threads()));
  json.add("fleet_duration_s_per_point", fleet.axes().duration_s);
  json.add("overall_perpetual_fraction", summary.overall.perpetual_fraction);
  json.add("overall_mean_goodput_bps", summary.overall.mean_goodput_bps);
  json.add("overall_mean_drop_rate", summary.overall.mean_drop_rate);
  json.add("overall_mean_bus_utilization", summary.overall.mean_bus_utilization);
  json.add("overall_mean_availability", summary.overall.mean_availability);
}

/// Population-scale streaming sweep (docs/scaling.md): a seed-replicate
/// grid far past anything expand() should materialize, run through
/// `Fleet::run_streaming` with binary spill shards. Cheap telemetry-only
/// leaves keep the per-point cost in the tens of microseconds so a million
/// full discrete-event simulations finish in bench time.
core::FleetAxes make_stream_axes(bool smoke) {
  core::FleetAxes axes;
  core::NodeClassSpec bio = bio_class(), imu = imu_class();
  imu.share = 1;
  bio.share = 3;
  axes.mixes.push_back({"telemetry", {imu, bio}});
  axes.node_counts = {2, 3};

  energy::HarvesterParams pv;
  pv.source = energy::HarvestSource::kIndoorPhotovoltaic;
  pv.mean_power_w = 50.0 * uW;
  pv.availability = 0.7;
  axes.harvests = {{"none", std::nullopt}, {"indoor-pv-50uW", pv}};

  // 2 node counts x 2 harvests x N seeds; every point still gets a unique
  // point_seed, so the seed axis IS the population axis.
  // The list replaces the default seed {42}.
  const std::size_t seeds = smoke ? 25'056 : 250'000;  // 100,224 / 1,000,000 points
  axes.seeds.clear();
  for (std::uint64_t s = 0; s < seeds; ++s) axes.seeds.push_back(1000 + s);
  axes.duration_s = 0.05;
  return axes;
}

void print_stream_grid(bench::JsonReporter& json) {
  const bool smoke = std::getenv("IOB_FLEET_STREAM_SMOKE") != nullptr;
  const core::Fleet fleet(make_stream_axes(smoke));
  common::print_banner("Population-scale streaming grid — " + std::to_string(fleet.size()) +
                       " NetworkSim points, online percentiles, binary spill shards" +
                       (smoke ? " [smoke]" : ""));

  const auto spill_dir =
      std::filesystem::temp_directory_path() / "iob_fleet_stream_spill";
  std::filesystem::remove_all(spill_dir);

  core::FleetStreamConfig cfg;
  cfg.batch_points = 8192;
  cfg.spill = core::StreamSinkConfig{};
  cfg.spill->directory = spill_dir.string();
  cfg.spill->basename = "fleet";
  cfg.spill->rows_per_shard = 131'072;
  cfg.spill->format = core::StreamFormat::kBinary;

  const core::SweepRunner runner;
  const double rss_before_mb = peak_rss_mb();
  const double t0 = bench::wall_time_s();
  const core::FleetStreamResult res = fleet.run_streaming(runner, cfg);
  const double dt = bench::wall_time_s() - t0;
  const double rss_peak_mb = peak_rss_mb();
  std::filesystem::remove_all(spill_dir);

  std::cout << res.summary.to_string();
  const double points_per_s = static_cast<double>(res.points) / dt;
  std::cout << "\n  " << res.points << " simulations in " << common::fixed(dt, 2) << " s ("
            << common::fixed(points_per_s, 1) << " points/s on " << runner.threads()
            << " thread(s))\n  spilled " << res.spilled_rows << " records / "
            << common::fixed(static_cast<double>(res.spilled_bytes) / (1024.0 * 1024.0), 1)
            << " MiB across " << res.spill_shards << " shards; peak RSS "
            << common::fixed(rss_peak_mb, 1) << " MiB (batch = " << cfg.batch_points
            << " points)\n";
  common::print_note("memory is O(batch), not O(grid): shards hold the per-point rows,");
  common::print_note("per-axis percentiles fold online (docs/scaling.md)");

  IOB_ENSURES(res.points == fleet.size(), "streaming run must cover the whole grid");
  IOB_ENSURES(res.spilled_rows == fleet.size(), "every point must spill exactly one record");

  json.add("fleet_stream_points", static_cast<double>(res.points));
  json.add("fleet_stream_points_per_s", points_per_s);
  json.add("fleet_stream_peak_rss_mb", rss_peak_mb);
  json.add("fleet_stream_rss_before_mb", rss_before_mb);
  json.add("fleet_stream_spilled_mb",
           static_cast<double>(res.spilled_bytes) / (1024.0 * 1024.0));
  json.add("fleet_stream_shards", static_cast<double>(res.spill_shards));
  json.add("fleet_stream_batch_points", static_cast<double>(cfg.batch_points));
  json.add("fleet_stream_perpetual_fraction", res.summary.overall.perpetual_fraction);

  // One more pass over the smoke-shaped grid with CSV spill, the format
  // perfbench's fleet_sweep streams, so the in-repo benches also time the
  // row serialization the workers do. The smoke shape bounds its spill to
  // about 51 MiB on either grid size.
  const core::Fleet csv_fleet(make_stream_axes(true));
  cfg.spill->format = core::StreamFormat::kCsv;
  const double csv_t0 = bench::wall_time_s();
  const core::FleetStreamResult csv = csv_fleet.run_streaming(runner, cfg);
  const double csv_dt = bench::wall_time_s() - csv_t0;
  std::filesystem::remove_all(spill_dir);
  IOB_ENSURES(csv.spilled_rows == csv_fleet.size(), "every point must spill exactly one row");
  const double csv_points_per_s = static_cast<double>(csv.points) / csv_dt;
  std::cout << "  CSV spill: " << csv.points << " simulations in " << common::fixed(csv_dt, 2)
            << " s (" << common::fixed(csv_points_per_s, 1) << " points/s), "
            << common::fixed(static_cast<double>(csv.spilled_bytes) / (1024.0 * 1024.0), 1)
            << " MiB\n";
  json.add("fleet_stream_csv_points_per_s", csv_points_per_s);
}

core::FleetPoint one_point(int n_nodes) {
  core::FleetAxes axes = make_axes(true);
  axes.node_counts = {n_nodes};
  axes.macs.resize(1);
  axes.mixes.resize(1);
  axes.harvests.resize(1);
  axes.faults = {core::FaultVariant::kNone};
  axes.seeds = {42};
  axes.duration_s = 2.0;
  return core::Fleet(axes).expand().front();
}

void BM_FleetPoint(benchmark::State& state) {
  const core::FleetPoint p = one_point(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_fleet_point(p));
  }
}
BENCHMARK(BM_FleetPoint)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_FleetExpand(benchmark::State& state) {
  const core::Fleet fleet(make_axes(false));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fleet.expand());
  }
}
BENCHMARK(BM_FleetExpand)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  iob::bench::JsonReporter json("fleet_grid");
  // Stream smoke on its own (CI matrix legs) runs only the streaming
  // section: the point there is exercising run_streaming + spill on every
  // sanitizer/compiler leg, not re-timing the classic grid. The docs job
  // sets both smoke vars and gets both sections in their smoke shapes.
  const bool stream_only = std::getenv("IOB_FLEET_STREAM_SMOKE") != nullptr &&
                           std::getenv("IOB_FLEET_SMOKE") == nullptr;
  if (!stream_only) print_grid(json);
  print_stream_grid(json);
  json.write();
  if (stream_only) return 0;
  return iob::bench::run_microbenchmarks(argc, argv);
}
