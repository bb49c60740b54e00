#pragma once
/// \file metrics.hpp
/// Rate/distortion metrics for the ISA codecs.

#include "isa/mjpeg.hpp"

namespace iob::isa {

/// Peak signal-to-noise ratio (dB) between two 8-bit frames of equal size.
double psnr_db(const GrayFrame& a, const GrayFrame& b);

}  // namespace iob::isa
