#include "isa/bitstream.hpp"

#include <stdexcept>

#include "common/expect.hpp"

namespace iob::isa {

void BitWriter::write(std::uint64_t bits, unsigned count) {
  IOB_EXPECTS(count <= 64, "cannot write more than 64 bits at once");
  for (unsigned i = count; i-- > 0;) {
    const unsigned bit = static_cast<unsigned>((bits >> i) & 1u);
    current_ = static_cast<std::uint8_t>((current_ << 1) | bit);
    if (++filled_ == 8) {
      bytes_.push_back(current_);
      current_ = 0;
      filled_ = 0;
    }
  }
  bit_count_ += count;
}

std::vector<std::uint8_t> BitWriter::finish() {
  if (filled_ > 0) {
    current_ = static_cast<std::uint8_t>(current_ << (8 - filled_));
    bytes_.push_back(current_);
    current_ = 0;
    filled_ = 0;
  }
  return std::move(bytes_);
}

BitReader::BitReader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

std::uint64_t BitReader::read(unsigned count) {
  IOB_EXPECTS(count <= 64, "cannot read more than 64 bits at once");
  std::uint64_t v = 0;
  for (unsigned i = 0; i < count; ++i) v = (v << 1) | read_bit();
  return v;
}

unsigned BitReader::read_bit() {
  const std::size_t byte_idx = pos_bits_ / 8;
  if (byte_idx >= bytes_.size()) throw std::out_of_range("bitstream exhausted");
  const unsigned shift = 7 - static_cast<unsigned>(pos_bits_ % 8);
  ++pos_bits_;
  return (bytes_[byte_idx] >> shift) & 1u;
}

}  // namespace iob::isa
