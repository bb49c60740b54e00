// Unit tests for src/workload: physiological plausibility of the synthetic
// generators and correctness of the traffic processes.

#include <gtest/gtest.h>

#include <cmath>

#include "sim/simulator.hpp"
#include "workload/audio.hpp"
#include "workload/ecg.hpp"
#include "workload/traffic.hpp"
#include "workload/video.hpp"

namespace iob::workload {
namespace {

// ---- ECG ---------------------------------------------------------------------

TEST(Ecg, SampleCountMatchesDuration) {
  EcgGenerator gen;
  sim::Rng rng(1);
  EXPECT_EQ(gen.generate(10.0, rng).size(), 3600u);
}

TEST(Ecg, BeatCountMatchesHeartRate) {
  EcgParams p;
  p.heart_rate_bpm = 60.0;
  p.noise_mv = 0.001;
  p.baseline_wander_mv = 0.0;
  EcgGenerator gen(p);
  sim::Rng rng(2);
  const auto sig = gen.generate(30.0, rng);
  // Count R peaks: samples above 60% of max with local-max property.
  const float thresh = 0.6f * p.amplitude_mv;
  int peaks = 0;
  for (std::size_t i = 1; i + 1 < sig.size(); ++i) {
    if (sig[i] > thresh && sig[i] >= sig[i - 1] && sig[i] > sig[i + 1]) ++peaks;
  }
  EXPECT_NEAR(peaks, 30, 3);  // ~1 Hz for 30 s
}

TEST(Ecg, AmplitudeInConfiguredRange) {
  EcgGenerator gen;
  sim::Rng rng(3);
  const auto sig = gen.generate(10.0, rng);
  float mx = 0.0f;
  for (const float v : sig) mx = std::max(mx, v);
  EXPECT_NEAR(mx, 1.1f, 0.3f);
}

TEST(Ecg, AdcCodesBounded) {
  EcgGenerator gen;
  sim::Rng rng(4);
  for (const auto c : gen.generate_adc(5.0, rng)) {
    EXPECT_GE(c, -32768);
    EXPECT_LE(c, 32767);
  }
}

TEST(Ecg, DataRateFormula) {
  EcgGenerator gen;
  EXPECT_DOUBLE_EQ(gen.data_rate_bps(12), 360.0 * 12.0);
}

TEST(Ecg, DeterministicGivenRngSeed) {
  EcgGenerator gen;
  sim::Rng a(5), b(5);
  EXPECT_EQ(gen.generate(2.0, a), gen.generate(2.0, b));
}

// ---- Audio ---------------------------------------------------------------------

TEST(Audio, BoundedAmplitude) {
  AudioGenerator gen;
  sim::Rng rng(13);
  for (const float v : gen.generate(2.0, rng)) {
    EXPECT_GE(v, -1.1f);
    EXPECT_LE(v, 1.1f);
  }
}

TEST(Audio, ContainsSpeechAndSilence) {
  AudioGenerator gen;
  sim::Rng rng(14);
  const auto sig = gen.generate(10.0, rng);
  // Windowed RMS: some windows loud, some quiet.
  const std::size_t win = 1600;  // 100 ms
  int loud = 0, quiet = 0;
  for (std::size_t start = 0; start + win <= sig.size(); start += win) {
    double rms = 0.0;
    for (std::size_t i = start; i < start + win; ++i) rms += static_cast<double>(sig[i]) * sig[i];
    rms = std::sqrt(rms / win);
    if (rms > 0.05) ++loud;
    if (rms < 0.01) ++quiet;
  }
  EXPECT_GT(loud, 5);
  EXPECT_GT(quiet, 2);
}

TEST(Audio, PcmRateIs256kbps) {
  AudioGenerator gen;
  EXPECT_DOUBLE_EQ(gen.data_rate_bps(16), 256000.0);
}

// ---- Video ---------------------------------------------------------------------

TEST(Video, FrameDimensionsAndRate) {
  VideoGenerator gen;
  sim::Rng rng(15);
  const auto f = gen.next_frame(rng);
  EXPECT_EQ(f.width, 320);
  EXPECT_EQ(f.height, 240);
  EXPECT_EQ(f.pixels.size(), 320u * 240u);
  EXPECT_DOUBLE_EQ(gen.raw_data_rate_bps(), 320.0 * 240 * 8 * 15);
}

TEST(Video, ConsecutiveFramesDiffer) {
  VideoGenerator gen;
  sim::Rng rng(16);
  const auto f1 = gen.next_frame(rng);
  const auto f2 = gen.next_frame(rng);
  std::size_t diff = 0;
  for (std::size_t i = 0; i < f1.pixels.size(); ++i) diff += (f1.pixels[i] != f2.pixels[i]);
  EXPECT_GT(diff, 100u);  // moving objects + noise
}

TEST(Video, RejectsNonBlockDims) {
  VideoParams p;
  p.width = 100;  // not multiple of 8
  EXPECT_THROW(VideoGenerator(p, 1), std::invalid_argument);
}

// ---- Traffic ---------------------------------------------------------------------

TEST(Traffic, PeriodicEmitsExpectedCount) {
  sim::Simulator sim(17);
  int count = 0;
  PeriodicSource src(sim, 0.1, 100, [&](sim::Time, std::uint32_t bytes) {
    EXPECT_EQ(bytes, 100u);
    ++count;
  });
  sim.run_until(1.05);
  EXPECT_EQ(count, 11);  // t = 0.0 .. 1.0
}

TEST(Traffic, PeriodicStops) {
  sim::Simulator sim(18);
  int count = 0;
  PeriodicSource src(sim, 0.1, 10, [&](sim::Time t, std::uint32_t) {
    ++count;
    if (t >= 0.45) src.stop();
  });
  sim.run_until(2.0);
  EXPECT_EQ(count, 6);
}

TEST(Traffic, PoissonMeanRate) {
  sim::Simulator sim(19);
  int count = 0;
  PoissonSource src(sim, 50.0, 10, [&](sim::Time, std::uint32_t) { ++count; });
  sim.run_until(20.0);
  EXPECT_NEAR(count, 1000, 100);  // 50/s * 20 s, ~3 sigma
}

TEST(Traffic, SinkTimesMatchSimClock) {
  sim::Simulator sim(20);
  std::vector<double> times;
  PeriodicSource src(sim, 0.25, 1, [&](sim::Time t, std::uint32_t) { times.push_back(t); },
                     0.5);
  sim.run_until(1.3);
  ASSERT_GE(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 0.5);
  EXPECT_DOUBLE_EQ(times[1], 0.75);
}

}  // namespace
}  // namespace iob::workload
