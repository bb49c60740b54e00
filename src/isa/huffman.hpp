#pragma once
/// \file huffman.hpp
/// Canonical Huffman coding over small integer alphabets — the entropy
/// stage of the MJPEG-style ISA codec. Code tables are exchanged as the
/// per-symbol code-length vector (canonical codes are reconstructed on
/// both sides), exactly as deployed formats do.

#include <cstdint>
#include <vector>

#include "isa/bitstream.hpp"

namespace iob::isa {

class HuffmanCodec {
 public:
  /// Build optimal code lengths from symbol frequencies (freq[i] == 0 means
  /// symbol i never occurs and receives no code). At least one symbol must
  /// have non-zero frequency.
  static HuffmanCodec from_frequencies(const std::vector<std::uint64_t>& freqs);

  /// Rebuild a codec from transmitted code lengths (0 = absent symbol).
  static HuffmanCodec from_code_lengths(std::vector<std::uint8_t> lengths);

  void encode(unsigned symbol, BitWriter& out) const;

  /// Decode one symbol; throws std::runtime_error on an invalid prefix.
  [[nodiscard]] unsigned decode(BitReader& in) const;

  [[nodiscard]] const std::vector<std::uint8_t>& code_lengths() const { return lengths_; }

  /// Shannon entropy (bits/symbol) of a frequency table.
  static double entropy_bits(const std::vector<std::uint64_t>& freqs);

 private:
  explicit HuffmanCodec(std::vector<std::uint8_t> lengths);
  void build_canonical();

  std::vector<std::uint8_t> lengths_;
  std::vector<std::uint32_t> codes_;          ///< canonical code per symbol
  // decode acceleration: for each code length L, the first canonical code
  // value and the index of its first symbol in symbols_by_code_.
  std::vector<std::uint32_t> first_code_;
  std::vector<std::uint32_t> first_index_;
  std::vector<std::uint32_t> count_at_len_;
  std::vector<unsigned> symbols_by_code_;
  unsigned max_len_ = 0;
};

}  // namespace iob::isa
