// Property-based tests: parameterized sweeps (TEST_P) asserting invariants
// across wide input grids rather than single examples — codec round-trips
// over content classes, MAC conservation over traffic shapes, optimizer
// dominance over cost grids, channel monotonicities over parameter ranges.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <tuple>

#include "comm/tdma.hpp"
#include "comm/wir_link.hpp"
#include "common/units.hpp"
#include "energy/battery.hpp"
#include "energy/lifetime.hpp"
#include "isa/adpcm.hpp"
#include "isa/bio_codec.hpp"
#include "isa/fft.hpp"
#include "isa/huffman.hpp"
#include "isa/metrics.hpp"
#include "isa/mjpeg.hpp"
#include "nn/model_zoo.hpp"
#include "nn/quantize.hpp"
#include "partition/partitioner.hpp"
#include "phy/eqs_channel.hpp"
#include "phy/modulation.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace iob {
namespace {

using namespace iob::units;

// ---- TDMA conservation over (payload, node count) ------------------------------

class TdmaConservation : public ::testing::TestWithParam<std::tuple<std::uint32_t, int>> {};

TEST_P(TdmaConservation, DeliveredBytesEqualHubIngestAndNothingIsLost) {
  const auto [payload, n_nodes] = GetParam();
  sim::Simulator sim(1000 + payload + static_cast<unsigned>(n_nodes));
  comm::WiRLink wir;
  comm::TdmaBus bus(sim, wir, comm::TdmaConfig{});

  std::vector<comm::NodeId> ids;
  for (int i = 0; i < n_nodes; ++i) ids.push_back(bus.add_node("n" + std::to_string(i)));

  const int frames_per_node = 30;
  std::uint64_t hub_bytes = 0;
  bus.set_delivery_handler(
      [&](const comm::Frame& f, sim::Time) { hub_bytes += f.payload_bytes; });
  for (const auto id : ids) {
    for (int k = 0; k < frames_per_node; ++k) {
      comm::Frame f;
      f.payload_bytes = payload;
      bus.enqueue(id, f);
    }
  }
  bus.start();
  sim.run_until(5.0);
  bus.stop();

  const std::uint64_t expected =
      static_cast<std::uint64_t>(payload) * frames_per_node * static_cast<unsigned>(n_nodes);
  EXPECT_EQ(hub_bytes, expected);
  EXPECT_EQ(bus.stats().total_bytes_delivered(), expected);
  for (const auto& ns : bus.stats().nodes) {
    EXPECT_EQ(ns.frames_dropped(), 0u);
    EXPECT_EQ(ns.queue_overflows(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(PayloadNodeGrid, TdmaConservation,
                         ::testing::Combine(::testing::Values(20u, 100u, 240u, 400u),
                                            ::testing::Values(1, 3, 8)));

// ---- Huffman round-trip over random distributions --------------------------------

class HuffmanProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HuffmanProperty, RoundTripAndNearEntropyForRandomDistributions) {
  sim::Rng rng(GetParam());
  const std::size_t alphabet = 1 + static_cast<std::size_t>(rng.uniform_int(1, 255));
  std::vector<std::uint64_t> freqs(alphabet, 0);
  // Mix of zero, rare and common symbols.
  for (auto& f : freqs) {
    f = rng.bernoulli(0.3) ? 0 : static_cast<std::uint64_t>(rng.uniform_int(1, 10000));
  }
  if (std::none_of(freqs.begin(), freqs.end(), [](auto f) { return f > 0; })) freqs[0] = 1;

  const isa::HuffmanCodec codec = isa::HuffmanCodec::from_frequencies(freqs);
  // Near-optimality.
  const double total = std::accumulate(freqs.begin(), freqs.end(), 0.0);
  const double mean_len =
      std::inner_product(freqs.begin(), freqs.end(), codec.code_lengths().begin(), 0.0) / total;
  EXPECT_LT(mean_len, isa::HuffmanCodec::entropy_bits(freqs) + 1.0);

  // Round-trip a random message drawn from the distribution.
  std::vector<unsigned> message;
  for (unsigned s = 0; s < freqs.size(); ++s) {
    if (freqs[s] > 0) {
      for (int k = 0; k < 3; ++k) message.push_back(s);
    }
  }
  isa::BitWriter w;
  for (const auto s : message) codec.encode(s, w);
  const auto bytes = w.finish();
  isa::BitReader r(bytes);
  for (const auto s : message) ASSERT_EQ(codec.decode(r), s);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HuffmanProperty,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u, 77u, 88u));

// ---- MJPEG round-trip across frame sizes and content -------------------------------

class MjpegSizes : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MjpegSizes, DecodesToSameDimensionsWithReasonablePsnr) {
  const auto [w, h] = GetParam();
  sim::Rng rng(static_cast<unsigned>(w * 1000 + h));
  isa::GrayFrame f;
  f.width = w;
  f.height = h;
  f.pixels.resize(static_cast<std::size_t>(w) * h);
  for (auto& p : f.pixels) p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));

  // Worst case content (white noise): round-trip must still hold and the
  // codec must not explode the size by more than the entropy bound allows.
  isa::MjpegCodec codec(75);
  const isa::MjpegEncoded enc = codec.encode(f);
  const isa::GrayFrame back = codec.decode(enc);
  EXPECT_EQ(back.width, w);
  EXPECT_EQ(back.height, h);
  EXPECT_GT(isa::psnr_db(f, back), 10.0);  // noise is hard; just sane
  // Worst-case expansion is bounded: fixed 260 B table header plus at most
  // ~3x entropy-coded payload on incompressible content.
  EXPECT_LT(enc.size_bytes(), f.size_bytes() * 3 + 280);
}

INSTANTIATE_TEST_SUITE_P(SizeGrid, MjpegSizes,
                         ::testing::Values(std::make_tuple(8, 8), std::make_tuple(16, 8),
                                           std::make_tuple(64, 48), std::make_tuple(128, 64)));

// ---- ADPCM across tone frequencies and amplitudes -----------------------------------

class AdpcmTones : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(AdpcmTones, ReconstructionSnrStaysUsable) {
  const auto [freq, amp] = GetParam();
  std::vector<std::int16_t> pcm(8000);
  for (std::size_t i = 0; i < pcm.size(); ++i) {
    pcm[i] = static_cast<std::int16_t>(
        amp * 32767.0 * std::sin(2.0 * M_PI * freq * static_cast<double>(i) / 16000.0));
  }
  EXPECT_GT(isa::AdpcmCodec::reconstruction_snr_db(pcm), 10.0)
      << freq << " Hz @ " << amp;
  EXPECT_EQ(isa::AdpcmCodec::decode(isa::AdpcmCodec::encode(pcm)).size(), pcm.size());
}

INSTANTIATE_TEST_SUITE_P(ToneGrid, AdpcmTones,
                         ::testing::Combine(::testing::Values(110.0, 440.0, 1760.0),
                                            ::testing::Values(0.1, 0.5, 0.9)));

// ---- BioCodec lossless across signal classes ------------------------------------------

class BioCodecSignals : public ::testing::TestWithParam<int> {};

TEST_P(BioCodecSignals, AlwaysLossless) {
  sim::Rng rng(500 + static_cast<unsigned>(GetParam()));
  std::vector<std::int16_t> samples(3000);
  switch (GetParam()) {
    case 0:  // random walk
    {
      std::int32_t v = 0;
      for (auto& s : samples) {
        v = std::clamp<std::int32_t>(v + static_cast<std::int32_t>(rng.uniform_int(-90, 90)),
                                     -32768, 32767);
        s = static_cast<std::int16_t>(v);
      }
      break;
    }
    case 1:  // pure sine
      for (std::size_t i = 0; i < samples.size(); ++i) {
        samples[i] = static_cast<std::int16_t>(20000.0 * std::sin(i * 0.02));
      }
      break;
    case 2:  // constant
      std::fill(samples.begin(), samples.end(), static_cast<std::int16_t>(-1234));
      break;
    case 3:  // white noise, full scale
      for (auto& s : samples) s = static_cast<std::int16_t>(rng.uniform_int(-32768, 32767));
      break;
    case 4:  // alternating extremes
      for (std::size_t i = 0; i < samples.size(); ++i) {
        samples[i] = (i % 2) ? std::numeric_limits<std::int16_t>::max()
                             : std::numeric_limits<std::int16_t>::min();
      }
      break;
    default: break;
  }
  for (const bool huffman : {false, true}) {
    isa::BioCodec codec(huffman);
    EXPECT_EQ(codec.decode(codec.encode(samples)), samples) << "class " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(SignalClasses, BioCodecSignals, ::testing::Range(0, 5));

// ---- Partitioner dominance and monotonicity over link-energy grid ---------------------

class PartitionEnergyGrid : public ::testing::TestWithParam<double> {};

TEST_P(PartitionEnergyGrid, OptimizerNeverWorseThanEitherPole) {
  const double e_bit = GetParam();
  for (auto* make : {+[] { return nn::make_kws_dscnn(); }, +[] { return nn::make_ecg_cnn1d(); }}) {
    const nn::Model m = make();
    partition::CostModel cm;
    cm.leaf_hub = {"grid", 1e6, e_bit, 40e-12, 1e-4};
    cm.hub_cloud = partition::CostModel::default_uplink();
    const partition::Partitioner part(m, cm);
    const auto best = part.optimize(partition::Objective::kLeafEnergy);
    EXPECT_LE(best.leaf_energy_j(), part.all_on_leaf().leaf_energy_j() * (1 + 1e-12));
    EXPECT_LE(best.leaf_energy_j(), part.full_offload().leaf_energy_j() * (1 + 1e-12));
  }
}

TEST_P(PartitionEnergyGrid, OffloadEnergyLinearInLinkEnergy) {
  const double e_bit = GetParam();
  const nn::Model m = nn::make_ecg_cnn1d();
  partition::CostModel cm;
  cm.leaf_hub = {"grid", 1e6, e_bit, 40e-12, 1e-4};
  cm.hub_cloud = partition::CostModel::default_uplink();
  const partition::Partitioner part(m, cm);
  const double bits =
      static_cast<double>(m.input_bytes_i8() + nn::kActivationHeaderBytes) * 8.0;
  EXPECT_NEAR(part.full_offload().leaf_tx_j, bits * e_bit, bits * e_bit * 1e-12);
}

INSTANTIATE_TEST_SUITE_P(LinkEnergies, PartitionEnergyGrid,
                         ::testing::Values(10e-12, 100e-12, 1e-9, 10e-9, 100e-9));

// ---- EQS channel monotonicities over parameter grid -------------------------------------

class EqsParamGrid : public ::testing::TestWithParam<double> {};

TEST_P(EqsParamGrid, GainMonotoneInReturnCapacitanceAndBounded) {
  const double c_ret_pf = GetParam();
  phy::EqsChannelParams smaller;
  smaller.c_return_f = c_ret_pf * pF;
  phy::EqsChannelParams larger = smaller;
  larger.c_return_f = 2.0 * c_ret_pf * pF;

  const phy::EqsChannel ch_small(smaller), ch_large(larger);
  EXPECT_LT(ch_small.flat_band_gain(), ch_large.flat_band_gain());
  EXPECT_GT(ch_small.flat_band_gain(), 0.0);
  EXPECT_LT(ch_large.flat_band_gain(), 1.0);  // passive channel never amplifies
  // Frequency response stays monotone below the corner region.
  EXPECT_LE(ch_small.voltage_gain(1.0 * kHz, 1.0), ch_small.voltage_gain(1.0 * MHz, 1.0));
}

INSTANTIATE_TEST_SUITE_P(ReturnCaps, EqsParamGrid, ::testing::Values(0.05, 0.1, 0.3, 1.0, 3.0));

// ---- Battery life and classification monotone in power -----------------------------------

class PowerGrid : public ::testing::TestWithParam<double> {};

TEST_P(PowerGrid, LifeMonotoneAndClassifierConsistent) {
  const double p = GetParam();
  const energy::Battery b = energy::Battery::coin_cell_1000mah();
  const double life = energy::battery_life_s(b, p);
  const double life_double = energy::battery_life_s(b, 2.0 * p);
  EXPECT_NEAR(life, 2.0 * life_double, life * 1e-9);  // exact inverse scaling
  // Classification is monotone: doubling power never improves the bucket.
  EXPECT_GE(static_cast<int>(energy::classify(life)),
            static_cast<int>(energy::classify(life_double)));
}

INSTANTIATE_TEST_SUITE_P(Powers, PowerGrid,
                         ::testing::Values(1e-6, 10e-6, 100e-6, 1e-3, 10e-3, 100e-3, 1.0));

// ---- FFT round-trip across power-of-two sizes ---------------------------------------------

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, InverseRecoversSignal) {
  const std::size_t n = GetParam();
  sim::Rng rng(n);
  std::vector<isa::Complex> x(n);
  for (auto& v : x) v = isa::Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  const auto original = x;
  isa::fft(x);
  isa::ifft(x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(x[i] - original[i]), 0.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Pow2, FftSizes, ::testing::Values(1u, 2u, 4u, 16u, 64u, 256u, 1024u));

// ---- Quantization round-trip over random tensors ------------------------------------------

class QuantSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantSeeds, ErrorAlwaysWithinHalfLsb) {
  sim::Rng rng(GetParam());
  nn::Tensor t(nn::Shape{257});
  const double scale = std::pow(10.0, rng.uniform(-3.0, 3.0));
  for (std::int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-scale, scale));
  }
  const nn::QuantizedTensor q = nn::quantize(t);
  EXPECT_LE(t.max_abs_diff(nn::dequantize(q)), nn::quant_error_bound(q.params) * 1.001);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantSeeds, ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// ---- required_snr monotone in target BER ----------------------------------------------------

class BerTargets : public ::testing::TestWithParam<double> {};

TEST_P(BerTargets, TighterTargetsNeedMoreSnr) {
  const double target = GetParam();
  for (const auto mod :
       {phy::Modulation::kOok, phy::Modulation::kBpsk, phy::Modulation::kGfsk}) {
    EXPECT_GT(phy::required_snr(mod, target / 10.0), phy::required_snr(mod, target));
  }
}

INSTANTIATE_TEST_SUITE_P(Targets, BerTargets, ::testing::Values(1e-2, 1e-3, 1e-5, 1e-7));

// ---- Model split-execution equivalence across all models -------------------------------------

class SplitModels : public ::testing::TestWithParam<int> {};

TEST_P(SplitModels, EverySplitReproducesMonolithicOutput) {
  const nn::Model m = GetParam() == 0   ? nn::make_kws_dscnn()
                      : GetParam() == 1 ? nn::make_ecg_cnn1d()
                                        : nn::make_vww_micronet();
  nn::Tensor x(m.input_shape());
  for (std::int64_t i = 0; i < x.size(); ++i) x[i] = std::sin(static_cast<float>(i) * 0.013f);
  const nn::Tensor full = m.forward(x);
  // Check a spread of split points (all of them for small models).
  const std::size_t step = m.layer_count() > 12 ? 4 : 1;
  for (std::size_t s = 0; s <= m.layer_count(); s += step) {
    const nn::Tensor head = m.forward_range(x, 0, s);
    const nn::Tensor out = m.forward_range(head, s, m.layer_count());
    EXPECT_LT(out.max_abs_diff(full), 1e-4) << "split " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Models, SplitModels, ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace iob
