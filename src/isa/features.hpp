#pragma once
/// \file features.hpp
/// Feature extractors — the "analytics" half of In-Sensor Analytics.
/// A leaf node that ships 10 MFCC coefficients per 32 ms audio frame sends
/// ~40x fewer bits than raw 16-bit PCM; a patch that ships beat features
/// instead of the ECG waveform sends ~100x fewer. These extractors produce
/// the actual model-zoo input tensors, so the ISA -> NN pipeline is real.

#include <vector>

#include "nn/tensor.hpp"

namespace iob::isa {

/// Mel filterbank configuration for MFCC extraction.
struct MelConfig {
  double sample_rate_hz = 16000.0;
  std::size_t frame_len = 512;      ///< samples per analysis frame (pow2)
  std::size_t hop = 320;            ///< 20 ms at 16 kHz
  std::size_t n_mels = 40;
  std::size_t n_mfcc = 10;
  double fmin_hz = 20.0;
  double fmax_hz = 7600.0;
};

/// Log-mel filterbank energies for one frame of samples (frame_len long).
std::vector<float> log_mel_energies(const std::vector<float>& frame, const MelConfig& cfg);

/// MFCCs for one frame (DCT-II of the log-mel energies, first n_mfcc).
std::vector<float> mfcc_frame(const std::vector<float>& frame, const MelConfig& cfg);

/// Full MFCC spectrogram tensor [n_frames, n_mfcc] over a signal — shaped
/// for `nn::make_kws_dscnn` when n_frames = 49, n_mfcc = 10.
nn::Tensor mfcc_spectrogram(const std::vector<float>& signal, const MelConfig& cfg,
                            std::size_t n_frames);

/// Mel scale conversions (HTK formula).
double hz_to_mel(double hz);
double mel_to_hz(double mel);

}  // namespace iob::isa
