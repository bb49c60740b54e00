#include "isa/metrics.hpp"

#include <cmath>

#include "common/expect.hpp"

namespace iob::isa {

double psnr_db(const GrayFrame& a, const GrayFrame& b) {
  IOB_EXPECTS(a.width == b.width && a.height == b.height, "frame size mismatch");
  IOB_EXPECTS(!a.pixels.empty(), "frames must be non-empty");
  double mse = 0.0;
  for (std::size_t i = 0; i < a.pixels.size(); ++i) {
    const double d = static_cast<double>(a.pixels[i]) - static_cast<double>(b.pixels[i]);
    mse += d * d;
  }
  mse /= static_cast<double>(a.pixels.size());
  if (mse == 0.0) return 200.0;  // identical
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

}  // namespace iob::isa
