#include "isa/huffman.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <utility>

#include "common/expect.hpp"

namespace iob::isa {

namespace {

/// Huffman tree construction -> per-symbol code lengths.
std::vector<std::uint8_t> build_lengths(const std::vector<std::uint64_t>& freqs) {
  IOB_EXPECTS(!freqs.empty(), "frequency table must be non-empty");
  struct Node {
    std::uint64_t freq;
    int id;  ///< < n_symbols: leaf; otherwise internal
  };
  const auto cmp = [](const Node& a, const Node& b) {
    if (a.freq != b.freq) return a.freq > b.freq;
    return a.id > b.id;  // deterministic tie-break
  };
  std::priority_queue<Node, std::vector<Node>, decltype(cmp)> heap(cmp);

  const int n = static_cast<int>(freqs.size());
  int live = 0;
  for (int i = 0; i < n; ++i) {
    if (freqs[static_cast<std::size_t>(i)] > 0) {
      heap.push(Node{freqs[static_cast<std::size_t>(i)], i});
      ++live;
    }
  }
  IOB_EXPECTS(live >= 1, "at least one symbol must have non-zero frequency");

  std::vector<std::uint8_t> lengths(freqs.size(), 0);
  if (live == 1) {
    // Single-symbol alphabet still needs one bit on the wire.
    lengths[static_cast<std::size_t>(heap.top().id)] = 1;
    return lengths;
  }

  // parent[] over leaves (0..n-1) and internal nodes (n..).
  std::vector<int> parent(freqs.size(), -1);
  int next_id = n;
  while (heap.size() > 1) {
    const Node a = heap.top();
    heap.pop();
    const Node b = heap.top();
    heap.pop();
    parent.push_back(-1);  // slot for next_id
    if (a.id < static_cast<int>(parent.size())) parent[static_cast<std::size_t>(a.id)] = next_id;
    if (b.id < static_cast<int>(parent.size())) parent[static_cast<std::size_t>(b.id)] = next_id;
    heap.push(Node{a.freq + b.freq, next_id});
    ++next_id;
  }

  for (int i = 0; i < n; ++i) {
    if (freqs[static_cast<std::size_t>(i)] == 0) continue;
    unsigned depth = 0;
    for (int cur = parent[static_cast<std::size_t>(i)]; cur != -1;
         cur = parent[static_cast<std::size_t>(cur)]) {
      ++depth;
    }
    lengths[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(depth);
  }
  return lengths;
}

}  // namespace

HuffmanCodec HuffmanCodec::from_frequencies(const std::vector<std::uint64_t>& freqs) {
  return HuffmanCodec(build_lengths(freqs));
}

HuffmanCodec HuffmanCodec::from_code_lengths(std::vector<std::uint8_t> lengths) {
  return HuffmanCodec(std::move(lengths));
}

HuffmanCodec::HuffmanCodec(std::vector<std::uint8_t> lengths) : lengths_(std::move(lengths)) {
  build_canonical();
}

void HuffmanCodec::build_canonical() {
  max_len_ = 0;
  for (const auto l : lengths_) max_len_ = std::max<unsigned>(max_len_, l);
  IOB_EXPECTS(max_len_ >= 1 && max_len_ <= 57, "code lengths out of range");

  // Symbols sorted by (length, symbol) get consecutive canonical codes.
  std::vector<unsigned> order;
  for (unsigned s = 0; s < lengths_.size(); ++s) {
    if (lengths_[s] > 0) order.push_back(s);
  }
  std::sort(order.begin(), order.end(), [this](unsigned a, unsigned b) {
    if (lengths_[a] != lengths_[b]) return lengths_[a] < lengths_[b];
    return a < b;
  });

  codes_.assign(lengths_.size(), 0);
  first_code_.assign(max_len_ + 1, 0);
  first_index_.assign(max_len_ + 1, 0);
  count_at_len_.assign(max_len_ + 1, 0);
  symbols_by_code_ = order;

  for (const unsigned s : order) ++count_at_len_[lengths_[s]];

  std::uint32_t code = 0;
  std::uint32_t index = 0;
  for (unsigned len = 1; len <= max_len_; ++len) {
    first_code_[len] = code;
    first_index_[len] = index;
    code += count_at_len_[len];
    index += count_at_len_[len];
    code <<= 1;
  }

  // Assign per-symbol codes.
  std::vector<std::uint32_t> next_code(first_code_);
  for (const unsigned s : order) {
    codes_[s] = next_code[lengths_[s]]++;
  }
}

void HuffmanCodec::encode(unsigned symbol, BitWriter& out) const {
  IOB_EXPECTS(symbol < lengths_.size() && lengths_[symbol] > 0, "symbol has no code");
  out.write(codes_[symbol], lengths_[symbol]);
}

unsigned HuffmanCodec::decode(BitReader& in) const {
  std::uint32_t code = 0;
  for (unsigned len = 1; len <= max_len_; ++len) {
    code = (code << 1) | in.read_bit();
    if (count_at_len_[len] == 0) continue;
    const std::uint32_t offset = code - first_code_[len];
    if (code >= first_code_[len] && offset < count_at_len_[len]) {
      return symbols_by_code_[first_index_[len] + offset];
    }
  }
  throw std::runtime_error("invalid Huffman prefix");
}

double HuffmanCodec::entropy_bits(const std::vector<std::uint64_t>& freqs) {
  const double total = static_cast<double>(std::accumulate(freqs.begin(), freqs.end(), std::uint64_t{0}));
  if (total == 0.0) return 0.0;
  double h = 0.0;
  for (const auto f : freqs) {
    if (f == 0) continue;
    const double p = static_cast<double>(f) / total;
    h -= p * std::log2(p);
  }
  return h;
}

}  // namespace iob::isa
