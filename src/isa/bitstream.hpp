#pragma once
/// \file bitstream.hpp
/// MSB-first bit-level I/O for the entropy coders.

#include <cstdint>
#include <vector>

namespace iob::isa {

class BitWriter {
 public:
  /// Append the low `count` bits of `bits` (MSB of the field first).
  void write(std::uint64_t bits, unsigned count);

  /// Pad to a byte boundary with zeros and return the buffer.
  [[nodiscard]] std::vector<std::uint8_t> finish();

  [[nodiscard]] std::size_t bit_count() const { return bit_count_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint8_t current_ = 0;
  unsigned filled_ = 0;  ///< bits used in current_
  std::size_t bit_count_ = 0;
};

class BitReader {
 public:
  explicit BitReader(const std::vector<std::uint8_t>& bytes);

  /// Read `count` bits MSB-first. Throws std::out_of_range past the end.
  std::uint64_t read(unsigned count);

  /// Read a single bit.
  unsigned read_bit();

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_bits_ = 0;
};

}  // namespace iob::isa
