#pragma once
/// \file mjpeg_delta.hpp
/// Inter-frame (delta) extension of the MJPEG-style ISA codec: key frames
/// are plain intra MJPEG; delta frames DCT-code the residual against the
/// decoder's previous reconstruction (closed-loop, no drift). On the slow-
/// moving first-person scenes camera leaf nodes produce, delta frames cut
/// traffic another ~2-5x over intra-only MJPEG at equal quality — a natural
/// "future extension" of the paper's per-frame-MJPEG ISA suggestion.

#include <cstdint>
#include <vector>

#include "isa/mjpeg.hpp"

namespace iob::isa {

struct DeltaEncodedFrame {
  bool key = false;
  int width = 0;
  int height = 0;
  int quality = 0;
  std::vector<std::uint8_t> payload;

  [[nodiscard]] std::size_t size_bytes() const { return payload.size() + 9; /* header */ }
};

class MjpegDeltaEncoder {
 public:
  /// \param quality 1..100 (as MjpegCodec)
  /// \param key_interval force an intra (key) frame every N frames (>= 1)
  explicit MjpegDeltaEncoder(int quality = 50, int key_interval = 30);

  /// Encode the next frame of the stream (stateful).
  DeltaEncodedFrame encode_next(const GrayFrame& frame);

 private:
  MjpegCodec intra_;
  int key_interval_;
  int since_key_ = 0;
  bool have_ref_ = false;
  GrayFrame reference_;  ///< decoder-side reconstruction (closed loop)
};

class MjpegDeltaDecoder {
 public:
  explicit MjpegDeltaDecoder(int quality = 50);

  /// Decode the next frame of the stream (stateful). Throws on a delta
  /// frame arriving before any key frame.
  GrayFrame decode_next(const DeltaEncodedFrame& encoded);

 private:
  MjpegCodec intra_;
  bool have_ref_ = false;
  GrayFrame reference_;
};

}  // namespace iob::isa
