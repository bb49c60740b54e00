#include "isa/features.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"
#include "isa/dct.hpp"
#include "isa/fft.hpp"

namespace iob::isa {

double hz_to_mel(double hz) { return 2595.0 * std::log10(1.0 + hz / 700.0); }
double mel_to_hz(double mel) { return 700.0 * (std::pow(10.0, mel / 2595.0) - 1.0); }

std::vector<float> log_mel_energies(const std::vector<float>& frame, const MelConfig& cfg) {
  IOB_EXPECTS(frame.size() == cfg.frame_len, "frame length mismatch");
  IOB_EXPECTS(cfg.n_mels >= 2, "need at least two mel bands");
  IOB_EXPECTS(cfg.fmax_hz > cfg.fmin_hz, "fmax must exceed fmin");

  // Hann window + magnitude spectrum.
  std::vector<float> windowed(frame.size());
  for (std::size_t i = 0; i < frame.size(); ++i) {
    const double w =
        0.5 - 0.5 * std::cos(2.0 * M_PI * static_cast<double>(i) /
                             static_cast<double>(frame.size() - 1));
    windowed[i] = static_cast<float>(frame[i] * w);
  }
  const auto mag = magnitude_spectrum(windowed);
  const std::size_t n_fft = (mag.size() - 1) * 2;
  const double bin_hz = cfg.sample_rate_hz / static_cast<double>(n_fft);

  // Triangular mel filterbank edges.
  const double mel_lo = hz_to_mel(cfg.fmin_hz), mel_hi = hz_to_mel(cfg.fmax_hz);
  std::vector<double> edges(cfg.n_mels + 2);
  for (std::size_t m = 0; m < edges.size(); ++m) {
    edges[m] = mel_to_hz(mel_lo + (mel_hi - mel_lo) * static_cast<double>(m) /
                                      static_cast<double>(cfg.n_mels + 1));
  }

  std::vector<float> energies(cfg.n_mels, 0.0f);
  for (std::size_t m = 0; m < cfg.n_mels; ++m) {
    const double left = edges[m], center = edges[m + 1], right = edges[m + 2];
    double acc = 0.0;
    for (std::size_t b = 0; b < mag.size(); ++b) {
      const double f = static_cast<double>(b) * bin_hz;
      double weight = 0.0;
      if (f > left && f < center) {
        weight = (f - left) / (center - left);
      } else if (f >= center && f < right) {
        weight = (right - f) / (right - center);
      }
      acc += weight * mag[b] * mag[b];
    }
    energies[m] = static_cast<float>(std::log(acc + 1e-10));
  }
  return energies;
}

std::vector<float> mfcc_frame(const std::vector<float>& frame, const MelConfig& cfg) {
  const auto mel = log_mel_energies(frame, cfg);
  const auto coeffs = dct2(mel);
  IOB_EXPECTS(cfg.n_mfcc <= coeffs.size(), "n_mfcc exceeds mel band count");
  return std::vector<float>(coeffs.begin(), coeffs.begin() + static_cast<long>(cfg.n_mfcc));
}

nn::Tensor mfcc_spectrogram(const std::vector<float>& signal, const MelConfig& cfg,
                            std::size_t n_frames) {
  IOB_EXPECTS(n_frames >= 1, "need at least one frame");
  const std::size_t needed = cfg.frame_len + (n_frames - 1) * cfg.hop;
  IOB_EXPECTS(signal.size() >= needed, "signal too short for requested frame count");

  nn::Tensor out(nn::Shape{static_cast<int>(n_frames), static_cast<int>(cfg.n_mfcc), 1});
  for (std::size_t t = 0; t < n_frames; ++t) {
    const std::vector<float> frame(signal.begin() + static_cast<long>(t * cfg.hop),
                                   signal.begin() + static_cast<long>(t * cfg.hop + cfg.frame_len));
    const auto coeffs = mfcc_frame(frame, cfg);
    for (std::size_t k = 0; k < cfg.n_mfcc; ++k) {
      out.at(static_cast<int>(t), static_cast<int>(k), 0) = coeffs[k];
    }
  }
  return out;
}

}  // namespace iob::isa
