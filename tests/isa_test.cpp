// Unit + property tests for src/isa: bit I/O, Huffman optimality, DCT
// reconstruction, the MJPEG-style codec's rate/distortion behaviour and its
// delta-frame variant, ADPCM, the lossless biopotential codec, FFT
// identities, and feature extraction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "isa/adpcm.hpp"
#include "isa/bio_codec.hpp"
#include "isa/bitstream.hpp"
#include "isa/dct.hpp"
#include "isa/features.hpp"
#include "isa/fft.hpp"
#include "isa/huffman.hpp"
#include "isa/metrics.hpp"
#include "isa/mjpeg.hpp"
#include "isa/mjpeg_delta.hpp"
#include "sim/rng.hpp"
#include "workload/video.hpp"

namespace iob::isa {
namespace {

// ---- Bitstream -----------------------------------------------------------------

TEST(Bitstream, RoundTripMixedWidths) {
  BitWriter w;
  w.write(0b101, 3);
  w.write(0xdead, 16);
  w.write(1, 1);
  w.write(0x123456789abcdefULL, 57);
  const auto bytes = w.finish();
  BitReader r(bytes);
  EXPECT_EQ(r.read(3), 0b101u);
  EXPECT_EQ(r.read(16), 0xdeadu);
  EXPECT_EQ(r.read(1), 1u);
  EXPECT_EQ(r.read(57), 0x123456789abcdefULL);
}

TEST(Bitstream, BitCountTracksWrites) {
  BitWriter w;
  w.write(0, 5);
  w.write(0, 9);
  EXPECT_EQ(w.bit_count(), 14u);
}

TEST(Bitstream, ReadPastEndThrows) {
  BitWriter w;
  w.write(0xff, 8);
  const auto bytes = w.finish();
  BitReader r(bytes);
  r.read(8);
  EXPECT_THROW(r.read(1), std::out_of_range);
}

// ---- Huffman -------------------------------------------------------------------

TEST(Huffman, RoundTripSkewedDistribution) {
  std::vector<std::uint64_t> freqs(256, 0);
  freqs[0] = 1000;
  freqs[1] = 500;
  freqs[2] = 100;
  freqs[7] = 10;
  freqs[255] = 1;
  const HuffmanCodec codec = HuffmanCodec::from_frequencies(freqs);

  const std::vector<unsigned> message = {0, 0, 1, 2, 0, 7, 255, 1, 0, 2};
  BitWriter w;
  for (const auto s : message) codec.encode(s, w);
  const auto bytes = w.finish();
  BitReader r(bytes);
  for (const auto s : message) EXPECT_EQ(codec.decode(r), s);
}

TEST(Huffman, WithinOneBitOfEntropy) {
  // Optimality property: E[len] - H < 1 bit for any distribution.
  sim::Rng rng(5);
  std::vector<std::uint64_t> freqs(64, 0);
  for (auto& f : freqs) f = static_cast<std::uint64_t>(rng.uniform_int(1, 1000));
  const HuffmanCodec codec = HuffmanCodec::from_frequencies(freqs);
  const double h = HuffmanCodec::entropy_bits(freqs);
  const double l = std::inner_product(freqs.begin(), freqs.end(), codec.code_lengths().begin(),
                                      0.0) /
                   std::accumulate(freqs.begin(), freqs.end(), 0.0);
  EXPECT_GE(l, h - 1e-9);
  EXPECT_LT(l, h + 1.0);
}

TEST(Huffman, FrequentSymbolsGetShorterCodes) {
  std::vector<std::uint64_t> freqs(4, 0);
  freqs[0] = 1000;
  freqs[3] = 1;
  freqs[1] = 100;
  freqs[2] = 10;
  const HuffmanCodec codec = HuffmanCodec::from_frequencies(freqs);
  EXPECT_LE(codec.code_lengths()[0], codec.code_lengths()[1]);
  EXPECT_LE(codec.code_lengths()[1], codec.code_lengths()[2]);
  EXPECT_LE(codec.code_lengths()[2], codec.code_lengths()[3]);
}

TEST(Huffman, SingleSymbolAlphabet) {
  std::vector<std::uint64_t> freqs(8, 0);
  freqs[3] = 42;
  const HuffmanCodec codec = HuffmanCodec::from_frequencies(freqs);
  BitWriter w;
  codec.encode(3, w);
  codec.encode(3, w);
  const auto bytes = w.finish();
  BitReader r(bytes);
  EXPECT_EQ(codec.decode(r), 3u);
  EXPECT_EQ(codec.decode(r), 3u);
}

TEST(Huffman, RebuildFromCodeLengths) {
  std::vector<std::uint64_t> freqs = {10, 20, 30, 40};
  const HuffmanCodec original = HuffmanCodec::from_frequencies(freqs);
  const HuffmanCodec rebuilt = HuffmanCodec::from_code_lengths(original.code_lengths());
  BitWriter w;
  original.encode(2, w);
  original.encode(0, w);
  const auto bytes = w.finish();
  BitReader r(bytes);
  EXPECT_EQ(rebuilt.decode(r), 2u);
  EXPECT_EQ(rebuilt.decode(r), 0u);
}

TEST(Huffman, EncodingAbsentSymbolThrows) {
  std::vector<std::uint64_t> freqs = {10, 0, 30};
  const HuffmanCodec codec = HuffmanCodec::from_frequencies(freqs);
  BitWriter w;
  EXPECT_THROW(codec.encode(1, w), std::invalid_argument);
}

// ---- DCT -----------------------------------------------------------------------

TEST(Dct, PerfectReconstruction) {
  sim::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    Block b{};
    for (auto& v : b) v = static_cast<float>(rng.uniform(-128.0, 128.0));
    const Block back = idct8x8(dct8x8(b));
    for (int i = 0; i < 64; ++i) {
      EXPECT_NEAR(back[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)], 1e-3);
    }
  }
}

TEST(Dct, EnergyPreservation) {
  // Orthonormal transform: Parseval holds.
  sim::Rng rng(8);
  Block b{};
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  const Block c = dct8x8(b);
  double e_spatial = 0.0, e_coeff = 0.0;
  for (int i = 0; i < 64; ++i) {
    e_spatial += static_cast<double>(b[static_cast<std::size_t>(i)]) * b[static_cast<std::size_t>(i)];
    e_coeff += static_cast<double>(c[static_cast<std::size_t>(i)]) * c[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(e_spatial, e_coeff, 1e-4);
}

TEST(Dct, ConstantBlockIsPureDc) {
  Block b{};
  b.fill(10.0f);
  const Block c = dct8x8(b);
  EXPECT_NEAR(c[0], 80.0f, 1e-3);  // 10 * 8 (orthonormal DC gain)
  for (int i = 1; i < 64; ++i) EXPECT_NEAR(c[static_cast<std::size_t>(i)], 0.0f, 1e-4);
}

TEST(Dct, ZigzagIsAPermutation) {
  const auto& zz = zigzag_order();
  std::array<bool, 64> seen{};
  for (const int idx : zz) {
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, 64);
    EXPECT_FALSE(seen[static_cast<std::size_t>(idx)]);
    seen[static_cast<std::size_t>(idx)] = true;
  }
  EXPECT_EQ(zz[0], 0);   // starts at DC
  EXPECT_EQ(zz[1], 1);   // then right
  EXPECT_EQ(zz[2], 8);   // then down-left
  EXPECT_EQ(zz[63], 63); // ends at the highest frequency
}

TEST(Dct, Generic1dMatchesDefinition) {
  const std::vector<float> x = {1.0f, 2.0f, 3.0f, 4.0f};
  const auto c = dct2(x);
  // DC term: sqrt(1/4) * sum = 0.5 * 10.
  EXPECT_NEAR(c[0], 5.0f, 1e-5);
  // Energy preserved.
  const double ex = 1 + 4 + 9 + 16;
  const double ec = std::inner_product(c.begin(), c.end(), c.begin(), 0.0);
  EXPECT_NEAR(ex, ec, 1e-4);
}

// ---- MJPEG codec ------------------------------------------------------------------

GrayFrame test_frame(int w, int h, std::uint64_t seed) {
  sim::Rng rng(seed);
  GrayFrame f;
  f.width = w;
  f.height = h;
  f.pixels.resize(static_cast<std::size_t>(w) * h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const double v = 128.0 + 60.0 * std::sin(x * 0.2) * std::cos(y * 0.13) +
                       rng.normal(0.0, 3.0);
      f.pixels[static_cast<std::size_t>(y) * w + x] =
          static_cast<std::uint8_t>(std::clamp(static_cast<int>(v), 0, 255));
    }
  }
  return f;
}

TEST(Mjpeg, RoundTripPreservesDimensions) {
  MjpegCodec codec(75);
  const GrayFrame f = test_frame(64, 48, 1);
  const GrayFrame back = codec.decode(codec.encode(f));
  EXPECT_EQ(back.width, f.width);
  EXPECT_EQ(back.height, f.height);
  EXPECT_EQ(back.pixels.size(), f.pixels.size());
}

TEST(Mjpeg, HighQualityHighPsnr) {
  MjpegCodec codec(90);
  const GrayFrame f = test_frame(64, 64, 2);
  EXPECT_GT(psnr_db(f, codec.decode(codec.encode(f))), 32.0);
}

TEST(Mjpeg, CompressesRealisticContent) {
  MjpegCodec codec(50);
  const GrayFrame f = test_frame(128, 128, 3);
  EXPECT_GT(codec.compression_ratio(f), 2.0);
}

TEST(Mjpeg, SmoothContentCompressesHarder) {
  MjpegCodec codec(50);
  GrayFrame smooth;
  smooth.width = smooth.height = 64;
  smooth.pixels.resize(64 * 64);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      smooth.pixels[static_cast<std::size_t>(y) * 64 + x] = static_cast<std::uint8_t>(x + y);
    }
  }
  EXPECT_GT(codec.compression_ratio(smooth), codec.compression_ratio(test_frame(64, 64, 4)));
  EXPECT_GT(codec.compression_ratio(smooth), 8.0);
}

class MjpegQualitySweep : public ::testing::TestWithParam<int> {};

TEST_P(MjpegQualitySweep, DecodesAtEveryQuality) {
  MjpegCodec codec(GetParam());
  const GrayFrame f = test_frame(48, 48, 5);
  const GrayFrame back = codec.decode(codec.encode(f));
  EXPECT_GT(psnr_db(f, back), 18.0);  // even q=5 must stay recognizable
}

INSTANTIATE_TEST_SUITE_P(Qualities, MjpegQualitySweep, ::testing::Values(5, 25, 50, 75, 95));

TEST(Mjpeg, QualityMonotonicallyImprovesPsnr) {
  const GrayFrame f = test_frame(64, 64, 6);
  double prev_psnr = 0.0;
  for (const int q : {10, 30, 50, 70, 90}) {
    MjpegCodec codec(q);
    const double p = psnr_db(f, codec.decode(codec.encode(f)));
    EXPECT_GE(p, prev_psnr - 0.3);  // allow tiny non-monotonic wiggle
    prev_psnr = p;
  }
}

TEST(Mjpeg, QualityTradesRateForDistortion) {
  const GrayFrame f = test_frame(64, 64, 7);
  EXPECT_GT(MjpegCodec(10).compression_ratio(f), MjpegCodec(90).compression_ratio(f));
}

TEST(Mjpeg, RejectsNonBlockAlignedFrames) {
  MjpegCodec codec(50);
  GrayFrame f;
  f.width = 30;  // not a multiple of 8
  f.height = 16;
  f.pixels.resize(480);
  EXPECT_THROW(codec.encode(f), std::invalid_argument);
  EXPECT_THROW(MjpegCodec(0), std::invalid_argument);
  EXPECT_THROW(MjpegCodec(101), std::invalid_argument);
}

// ---- ADPCM ---------------------------------------------------------------------

std::vector<std::int16_t> tone(double freq_hz, double fs, double seconds, double amp) {
  std::vector<std::int16_t> pcm(static_cast<std::size_t>(fs * seconds));
  for (std::size_t i = 0; i < pcm.size(); ++i) {
    pcm[i] = static_cast<std::int16_t>(
        amp * 32767.0 * std::sin(2.0 * M_PI * freq_hz * static_cast<double>(i) / fs));
  }
  return pcm;
}

TEST(Adpcm, FourToOneCompression) {
  const auto pcm = tone(440.0, 16000.0, 0.5, 0.5);
  const AdpcmEncoded enc = AdpcmCodec::encode(pcm);
  // 4 bits/sample vs 16: ratio ~4 (header amortized away).
  const double ratio = static_cast<double>(pcm.size() * 2) / static_cast<double>(enc.size_bytes());
  EXPECT_GT(ratio, 3.8);
  EXPECT_LE(ratio, 4.1);
}

TEST(Adpcm, ReconstructionSnrOnTone) {
  EXPECT_GT(AdpcmCodec::reconstruction_snr_db(tone(440.0, 16000.0, 0.5, 0.5)), 20.0);
}

TEST(Adpcm, SampleCountPreserved) {
  for (const std::size_t n : {1u, 2u, 3u, 100u, 101u}) {
    std::vector<std::int16_t> pcm(n, 1000);
    EXPECT_EQ(AdpcmCodec::decode(AdpcmCodec::encode(pcm)).size(), n);
  }
}

TEST(Adpcm, SilenceIsNearExact) {
  std::vector<std::int16_t> pcm(1000, 0);
  const auto back = AdpcmCodec::decode(AdpcmCodec::encode(pcm));
  for (const auto s : back) EXPECT_LE(std::abs(s), 8);  // minimum step dither
}

TEST(Adpcm, TracksStepChanges) {
  // Loud tone after silence: the adaptive step must catch up.
  auto pcm = tone(200.0, 16000.0, 0.1, 0.02);
  const auto loud = tone(200.0, 16000.0, 0.1, 0.9);
  pcm.insert(pcm.end(), loud.begin(), loud.end());
  EXPECT_GT(AdpcmCodec::reconstruction_snr_db(pcm), 15.0);
}

// ---- Biopotential codec -------------------------------------------------------------

TEST(BioCodec, LosslessRoundTrip) {
  sim::Rng rng(9);
  std::vector<std::int16_t> samples(2000);
  std::int16_t v = 0;
  for (auto& s : samples) {
    v = static_cast<std::int16_t>(v + rng.uniform_int(-50, 50));
    s = v;
  }
  for (const bool huff : {false, true}) {
    BioCodec codec(huff);
    EXPECT_EQ(codec.decode(codec.encode(samples)), samples);
  }
}

TEST(BioCodec, CompressesSmoothSignals) {
  // Slow ramp: deltas fit one varint byte -> ~2x before Huffman.
  std::vector<std::int16_t> samples(4000);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i] = static_cast<std::int16_t>(1000.0 + 500.0 * std::sin(i * 0.01));
  }
  BioCodec plain(false);
  EXPECT_GT(plain.compression_ratio(samples), 1.8);
  BioCodec huff(true);
  EXPECT_GT(huff.compression_ratio(samples), plain.compression_ratio(samples));
}

TEST(BioCodec, HandlesExtremes) {
  std::vector<std::int16_t> samples = {32767, -32768, 0, 32767, -32768};
  BioCodec codec(false);
  EXPECT_EQ(codec.decode(codec.encode(samples)), samples);
}

TEST(BioCodec, EmptyStream) {
  BioCodec codec(false);
  EXPECT_TRUE(codec.decode(codec.encode({})).empty());
}

// ---- FFT ------------------------------------------------------------------------------

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<Complex> x(8, Complex(0, 0));
  x[0] = Complex(1, 0);
  fft(x);
  for (const auto& v : x) EXPECT_NEAR(std::abs(v), 1.0, 1e-12);
}

TEST(Fft, SinePeaksAtItsBin) {
  const std::size_t n = 256;
  std::vector<float> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<float>(std::sin(2.0 * M_PI * 16.0 * static_cast<double>(i) / n));
  }
  const auto mag = magnitude_spectrum(x);
  std::size_t peak = 0;
  for (std::size_t i = 1; i < mag.size(); ++i) {
    if (mag[i] > mag[peak]) peak = i;
  }
  EXPECT_EQ(peak, 16u);
}

TEST(Fft, InverseRoundTrip) {
  sim::Rng rng(10);
  std::vector<Complex> x(64);
  for (auto& v : x) v = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  const auto original = x;
  fft(x);
  ifft(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i].real(), original[i].real(), 1e-10);
    EXPECT_NEAR(x[i].imag(), original[i].imag(), 1e-10);
  }
}

TEST(Fft, ParsevalHolds) {
  sim::Rng rng(11);
  std::vector<Complex> x(128);
  for (auto& v : x) v = Complex(rng.uniform(-1, 1), 0.0);
  double e_time = 0.0;
  for (const auto& v : x) e_time += std::norm(v);
  fft(x);
  double e_freq = 0.0;
  for (const auto& v : x) e_freq += std::norm(v);
  EXPECT_NEAR(e_freq / static_cast<double>(x.size()), e_time, 1e-9);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<Complex> x(12);
  EXPECT_THROW(fft(x), std::invalid_argument);
  EXPECT_EQ(next_pow2(12), 16u);
  EXPECT_EQ(next_pow2(16), 16u);
}

// ---- Features ---------------------------------------------------------------------------

TEST(Features, MelScaleRoundTrip) {
  for (const double hz : {100.0, 1000.0, 4000.0}) {
    EXPECT_NEAR(mel_to_hz(hz_to_mel(hz)), hz, 1e-6);
  }
  // Mel is compressive: octaves above 1 kHz add less than proportional mel.
  EXPECT_LT(hz_to_mel(8000.0) / hz_to_mel(1000.0), 8.0);
}

TEST(Features, LogMelRespondsToToneLocation) {
  MelConfig cfg;
  // A 500 Hz tone must put more energy in low-mel bands than a 4 kHz tone.
  auto make_tone = [&](double f) {
    std::vector<float> frame(cfg.frame_len);
    for (std::size_t i = 0; i < frame.size(); ++i) {
      frame[i] = static_cast<float>(std::sin(2.0 * M_PI * f * static_cast<double>(i) /
                                             cfg.sample_rate_hz));
    }
    return frame;
  };
  const auto low = log_mel_energies(make_tone(500.0), cfg);
  const auto high = log_mel_energies(make_tone(4000.0), cfg);
  std::size_t low_peak = 0, high_peak = 0;
  for (std::size_t i = 0; i < cfg.n_mels; ++i) {
    if (low[i] > low[low_peak]) low_peak = i;
    if (high[i] > high[high_peak]) high_peak = i;
  }
  EXPECT_LT(low_peak, high_peak);
}

TEST(Features, MfccShapes) {
  MelConfig cfg;
  std::vector<float> frame(cfg.frame_len, 0.1f);
  EXPECT_EQ(mfcc_frame(frame, cfg).size(), cfg.n_mfcc);
}

TEST(Features, SpectrogramMatchesKwsInput) {
  MelConfig cfg;
  const std::size_t frames = 49;
  std::vector<float> signal(cfg.frame_len + (frames - 1) * cfg.hop, 0.0f);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    signal[i] = static_cast<float>(std::sin(i * 0.05));
  }
  const nn::Tensor spec = mfcc_spectrogram(signal, cfg, frames);
  EXPECT_EQ(spec.shape(), (nn::Shape{49, 10, 1}));
  EXPECT_THROW(mfcc_spectrogram(std::vector<float>(10, 0.0f), cfg, frames),
               std::invalid_argument);
}

// ---- Metrics ------------------------------------------------------------------------------

TEST(Metrics, PsnrIdenticalIsHuge) {
  const GrayFrame f = test_frame(16, 16, 12);
  EXPECT_GT(psnr_db(f, f), 100.0);
}

// ---- MJPEG delta codec ---------------------------------------------------------

TEST(MjpegDelta, FirstFrameIsKeyAndRoundTrips) {
  workload::VideoGenerator gen;
  sim::Rng rng(1);
  const isa::GrayFrame f = gen.next_frame(rng);
  isa::MjpegDeltaEncoder enc(75);
  isa::MjpegDeltaDecoder dec(75);
  const isa::DeltaEncodedFrame e = enc.encode_next(f);
  EXPECT_TRUE(e.key);
  const isa::GrayFrame back = dec.decode_next(e);
  EXPECT_GT(isa::psnr_db(f, back), 28.0);
}

TEST(MjpegDelta, DeltaFramesTrackTheStreamWithoutDrift) {
  workload::VideoGenerator gen;
  sim::Rng rng(2);
  isa::MjpegDeltaEncoder enc(60, /*key_interval=*/1000);  // force long delta runs
  isa::MjpegDeltaDecoder dec(60);
  double worst_psnr = 1e9;
  for (int i = 0; i < 20; ++i) {
    const isa::GrayFrame f = gen.next_frame(rng);
    const isa::DeltaEncodedFrame e = enc.encode_next(f);
    EXPECT_EQ(e.key, i == 0);
    const isa::GrayFrame back = dec.decode_next(e);
    worst_psnr = std::min(worst_psnr, isa::psnr_db(f, back));
  }
  // Closed-loop prediction: quality must not degrade over a long delta run.
  EXPECT_GT(worst_psnr, 25.0);
}

TEST(MjpegDelta, DeltaFramesCrushIntraOnStaticTexturedScenes) {
  // The textbook inter-frame win: a detailed *static* background (expensive
  // to re-code intra every frame) with one small moving patch (the only
  // residual). Build frames directly so the texture is frame-static.
  const int w = 160, h = 120;
  sim::Rng tex_rng(42);
  std::vector<std::uint8_t> background(static_cast<std::size_t>(w) * h);
  for (auto& p : background) p = static_cast<std::uint8_t>(tex_rng.uniform_int(60, 200));

  auto make_frame = [&](int t) {
    isa::GrayFrame f;
    f.width = w;
    f.height = h;
    f.pixels = background;
    const int x0 = 10 + 4 * t, y0 = 40;  // 16x16 patch moving right
    for (int y = y0; y < y0 + 16; ++y) {
      for (int x = x0; x < x0 + 16; ++x) {
        f.pixels[static_cast<std::size_t>(y) * w + x] = 255;
      }
    }
    return f;
  };

  isa::MjpegCodec intra(60);
  isa::MjpegDeltaEncoder delta(60, 1000);
  isa::MjpegDeltaDecoder dec(60);
  (void)dec.decode_next(delta.encode_next(make_frame(0)));  // key frame

  std::size_t intra_bytes = 0, delta_bytes = 0;
  for (int t = 1; t <= 8; ++t) {
    const isa::GrayFrame f = make_frame(t);
    intra_bytes += intra.encode(f).size_bytes();
    const auto e = delta.encode_next(f);
    EXPECT_FALSE(e.key);
    delta_bytes += e.size_bytes();
    // And the stream still reconstructs faithfully (white-noise texture at
    // q60 codes at ~24.4 dB intra; delta must not degrade below that).
    EXPECT_GT(isa::psnr_db(f, dec.decode_next(e)), 23.0);
  }
  EXPECT_LT(static_cast<double>(delta_bytes), 0.25 * static_cast<double>(intra_bytes));
}

TEST(MjpegDelta, KeyIntervalForcesPeriodicKeys) {
  workload::VideoGenerator gen;
  sim::Rng rng(4);
  isa::MjpegDeltaEncoder enc(50, /*key_interval=*/4);
  int keys = 0;
  for (int i = 0; i < 12; ++i) {
    keys += enc.encode_next(gen.next_frame(rng)).key ? 1 : 0;
  }
  EXPECT_EQ(keys, 3);  // frames 0, 4, 8
}

TEST(MjpegDelta, DecoderRejectsDeltaBeforeKey) {
  isa::MjpegDeltaDecoder dec(50);
  isa::DeltaEncodedFrame bogus;
  bogus.key = false;
  bogus.width = 16;
  bogus.height = 16;
  EXPECT_THROW(dec.decode_next(bogus), std::invalid_argument);
}

}  // namespace
}  // namespace iob::isa
