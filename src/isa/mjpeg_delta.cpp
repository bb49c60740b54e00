#include "isa/mjpeg_delta.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/expect.hpp"
#include "isa/dct.hpp"
#include "isa/entropy_detail.hpp"

namespace iob::isa {

namespace {

/// Quantized-residual token encoding with zero-block skipping: the stream
/// is [varint skip-count][coded block]* with a trailing skip if the frame
/// ends in zero blocks. Coded blocks carry an *absolute* DC varint
/// (residual DCs center on zero, so prediction buys nothing) followed by
/// the intra AC grammar ((run, varint) pairs, EOB byte 63). Also produces
/// the *dequantized* residual so the encoder can track the decoder's state.
void encode_residual_blocks(const std::vector<float>& residual, int width, int height,
                            const std::vector<int>& quant, std::vector<std::uint8_t>& tokens,
                            std::vector<float>& recon_residual) {
  const auto& zz = zigzag_order();
  recon_residual.assign(residual.size(), 0.0f);
  std::int32_t zero_run = 0;
  for (int by = 0; by < height; by += kBlock) {
    for (int bx = 0; bx < width; bx += kBlock) {
      Block spatial{};
      for (int y = 0; y < kBlock; ++y) {
        for (int x = 0; x < kBlock; ++x) {
          spatial[static_cast<std::size_t>(y * kBlock + x)] =
              residual[static_cast<std::size_t>(by + y) * static_cast<std::size_t>(width) +
                       static_cast<std::size_t>(bx + x)];
        }
      }
      const Block coeffs = dct8x8(spatial);

      std::array<int, 64> q{};
      Block deq{};
      bool all_zero = true;
      for (int i = 0; i < 64; ++i) {
        const int rm = zz[static_cast<std::size_t>(i)];
        q[static_cast<std::size_t>(i)] = static_cast<int>(
            std::lround(coeffs[static_cast<std::size_t>(rm)] /
                        static_cast<float>(quant[static_cast<std::size_t>(rm)])));
        all_zero &= (q[static_cast<std::size_t>(i)] == 0);
        deq[static_cast<std::size_t>(rm)] =
            static_cast<float>(q[static_cast<std::size_t>(i)]) *
            static_cast<float>(quant[static_cast<std::size_t>(rm)]);
      }

      if (all_zero) {
        ++zero_run;  // recon_residual stays zero for this block
        continue;
      }

      detail::put_varint(tokens, zero_run);
      zero_run = 0;
      detail::put_varint(tokens, q[0]);  // absolute DC
      int run = 0;
      for (int i = 1; i < 64; ++i) {
        if (q[static_cast<std::size_t>(i)] == 0) {
          ++run;
          continue;
        }
        tokens.push_back(static_cast<std::uint8_t>(run));
        detail::put_varint(tokens, q[static_cast<std::size_t>(i)]);
        run = 0;
      }
      tokens.push_back(63);  // EOB

      const Block rec = idct8x8(deq);
      for (int y = 0; y < kBlock; ++y) {
        for (int x = 0; x < kBlock; ++x) {
          recon_residual[static_cast<std::size_t>(by + y) * static_cast<std::size_t>(width) +
                         static_cast<std::size_t>(bx + x)] =
              rec[static_cast<std::size_t>(y * kBlock + x)];
        }
      }
    }
  }
  if (zero_run > 0) detail::put_varint(tokens, zero_run);
}

std::vector<float> decode_residual_blocks(const std::vector<std::uint8_t>& tokens, int width,
                                          int height, const std::vector<int>& quant) {
  const auto& zz = zigzag_order();
  std::vector<float> residual(static_cast<std::size_t>(width) * static_cast<std::size_t>(height),
                              0.0f);
  const int blocks_x = width / kBlock;
  const int total_blocks = blocks_x * (height / kBlock);
  std::size_t pos = 0;
  int block_idx = 0;
  while (block_idx < total_blocks) {
    const std::int32_t skip = detail::get_varint(tokens, pos);
    if (skip < 0 || block_idx + skip > total_blocks) {
      throw std::runtime_error("mjpeg-delta: invalid block skip");
    }
    block_idx += skip;  // skipped blocks stay zero
    if (block_idx == total_blocks) break;

    std::array<int, 64> q{};
    q[0] = detail::get_varint(tokens, pos);  // absolute DC
    int i = 1;
    while (true) {
      if (pos >= tokens.size()) throw std::runtime_error("mjpeg-delta: truncated block");
      const std::uint8_t run = tokens[pos++];
      if (run == 63) break;
      i += run;
      if (i >= 64) throw std::runtime_error("mjpeg-delta: run past block end");
      q[static_cast<std::size_t>(i)] = detail::get_varint(tokens, pos);
      ++i;
    }
    Block coeffs{};
    for (int k = 0; k < 64; ++k) {
      const int rm = zz[static_cast<std::size_t>(k)];
      coeffs[static_cast<std::size_t>(rm)] =
          static_cast<float>(q[static_cast<std::size_t>(k)]) *
          static_cast<float>(quant[static_cast<std::size_t>(rm)]);
    }
    const Block rec = idct8x8(coeffs);
    const int by = (block_idx / blocks_x) * kBlock;
    const int bx = (block_idx % blocks_x) * kBlock;
    for (int y = 0; y < kBlock; ++y) {
      for (int x = 0; x < kBlock; ++x) {
        residual[static_cast<std::size_t>(by + y) * static_cast<std::size_t>(width) +
                 static_cast<std::size_t>(bx + x)] =
            rec[static_cast<std::size_t>(y * kBlock + x)];
      }
    }
    ++block_idx;
  }
  return residual;
}

std::uint8_t clamp_pixel(double v) {
  return static_cast<std::uint8_t>(std::clamp(static_cast<int>(std::lround(v)), 0, 255));
}

}  // namespace

// ---- Encoder -----------------------------------------------------------------

MjpegDeltaEncoder::MjpegDeltaEncoder(int quality, int key_interval)
    : intra_(quality), key_interval_(key_interval) {
  IOB_EXPECTS(key_interval_ >= 1, "key interval must be at least 1");
}

DeltaEncodedFrame MjpegDeltaEncoder::encode_next(const GrayFrame& frame) {
  IOB_EXPECTS(frame.width % kBlock == 0 && frame.height % kBlock == 0,
              "frame dims must be multiples of 8");
  DeltaEncodedFrame out;
  out.width = frame.width;
  out.height = frame.height;
  out.quality = intra_.quality();

  const bool key = !have_ref_ || since_key_ >= key_interval_ ||
                   (have_ref_ && (reference_.width != frame.width ||
                                  reference_.height != frame.height));
  if (key) {
    const MjpegEncoded enc = intra_.encode(frame);
    out.key = true;
    out.payload = enc.payload;
    reference_ = intra_.decode(enc);  // closed loop: track the decoder
    have_ref_ = true;
    since_key_ = 1;
    return out;
  }

  // Delta frame: residual against the reconstruction the decoder holds.
  std::vector<float> residual(frame.pixels.size());
  for (std::size_t i = 0; i < residual.size(); ++i) {
    residual[i] = static_cast<float>(frame.pixels[i]) -
                  static_cast<float>(reference_.pixels[i]);
  }
  std::vector<std::uint8_t> tokens;
  std::vector<float> recon_residual;
  encode_residual_blocks(residual, frame.width, frame.height, intra_.quant_matrix(), tokens,
                         recon_residual);
  out.key = false;
  // Entropy stage is optional: for near-static frames the 260 B Huffman
  // table header outweighs the coding gain, so ship raw tokens instead.
  // First payload byte selects the mode (0 = raw, 1 = Huffman-wrapped).
  const std::vector<std::uint8_t> wrapped = detail::huffman_wrap(tokens);
  if (wrapped.size() < tokens.size()) {
    out.payload.push_back(1);
    out.payload.insert(out.payload.end(), wrapped.begin(), wrapped.end());
  } else {
    out.payload.push_back(0);
    out.payload.insert(out.payload.end(), tokens.begin(), tokens.end());
  }

  for (std::size_t i = 0; i < reference_.pixels.size(); ++i) {
    reference_.pixels[i] =
        clamp_pixel(static_cast<double>(reference_.pixels[i]) + recon_residual[i]);
  }
  ++since_key_;
  return out;
}

// ---- Decoder -----------------------------------------------------------------

MjpegDeltaDecoder::MjpegDeltaDecoder(int quality) : intra_(quality) {}

GrayFrame MjpegDeltaDecoder::decode_next(const DeltaEncodedFrame& encoded) {
  if (encoded.key) {
    MjpegEncoded intra;
    intra.width = encoded.width;
    intra.height = encoded.height;
    intra.quality = encoded.quality;
    intra.payload = encoded.payload;
    reference_ = intra_.decode(intra);
    have_ref_ = true;
    return reference_;
  }

  IOB_EXPECTS(have_ref_, "delta frame before any key frame");
  IOB_EXPECTS(encoded.width == reference_.width && encoded.height == reference_.height,
              "delta frame dimension mismatch");
  IOB_EXPECTS(!encoded.payload.empty(), "empty delta payload");
  const std::vector<std::uint8_t> body(encoded.payload.begin() + 1, encoded.payload.end());
  const auto tokens = encoded.payload[0] == 1 ? detail::huffman_unwrap(body) : body;
  const auto residual =
      decode_residual_blocks(tokens, encoded.width, encoded.height, intra_.quant_matrix());
  for (std::size_t i = 0; i < reference_.pixels.size(); ++i) {
    reference_.pixels[i] =
        clamp_pixel(static_cast<double>(reference_.pixels[i]) + residual[i]);
  }
  return reference_;
}

}  // namespace iob::isa
