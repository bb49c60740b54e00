#pragma once
/// \file stream_sink.hpp
/// Streaming building blocks for population-scale fleet grids
/// (docs/scaling.md): a bounded spill writer that shards per-point results
/// to disk, and a fixed-memory online quantile accumulator so per-axis
/// marginal summaries no longer hold every sample in a sorted vector.
///
/// Both pieces are deterministic by construction. `StreamSink` writes
/// exactly the bytes it is handed, in the order it is handed them — the
/// caller (Fleet::run_streaming) feeds rows in flat grid-index order, so the
/// concatenation of all shards is byte-identical to the monolithic
/// `fleet_results_csv` of an in-memory run at any thread count.
/// `OnlineQuantile` is a fold: its state is a pure function of the sample
/// *sequence*, which the index-order merge already fixes.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace iob::core {

/// `percentile` over an already-sorted, possibly +inf-bearing sample vector:
/// linear interpolation at rank q*(n-1), never interpolating *through* +inf
/// (a +inf upper neighbour wins outright, so no NaN). Single source of truth
/// for the interpolation rule — `core::percentile` and the exact mode of
/// `OnlineQuantile` both call it, which is what makes the small-sample mode
/// bit-identical to the sorted-vector path.
[[nodiscard]] double quantile_sorted(const std::vector<double>& sorted, double q);

/// One-pass quantile accumulator over non-negative samples (the DDSketch /
/// t-digest family: fixed memory, mergeless fold).
///
/// Two regimes:
///  * **Exact** (<= kExactLimit samples): samples are retained and queries
///    run `quantile_sorted` on them — bit-identical to `core::percentile`,
///    so small per-axis cells (every pre-streaming grid in the repo) keep
///    byte-identical summaries.
///  * **Sketch** (beyond kExactLimit): positive finite samples land in
///    log-spaced bins with ratio gamma = (1+e)/(1-e), e = kRelativeError.
///    A bin's representative value 2*gamma/(gamma+1) * gamma^i is within
///    relative error e of anything in the bin, and the interpolated quantile
///    is a convex combination of two rank values, so:
///
///      |quantile(q) - exact_quantile(q)| <= kRelativeError * exact_quantile(q)
///
///    for any quantile whose exact value is positive and finite. Zeros and
///    +inf are counted outside the bins (their ranks — and therefore the
///    decision "is this percentile perpetual?" — stay exact; a mostly-
///    perpetual cell reports +inf exactly like the sorted-vector path).
///
/// The epsilon above is the documented bound that tests/stream_test.cpp and
/// the 2,160-point bench grid assert (docs/scaling.md#online-quantiles).
class OnlineQuantile {
 public:
  /// Samples retained before switching to the sketch.
  static constexpr std::size_t kExactLimit = 512;
  /// Relative-error bound of the sketch regime (1 %).
  static constexpr double kRelativeError = 0.01;
  /// Positive samples below this count as zero (log-bin indices stay sane).
  static constexpr double kZeroThreshold = 1e-300;

  /// Fold one sample. Requires x >= 0 (or +inf); NaN is rejected.
  void add(double x);

  /// Samples folded so far.
  [[nodiscard]] std::size_t count() const { return count_; }

  /// True once the accumulator has left the exact regime — queries are now
  /// estimates within kRelativeError (summary tables mark them "~").
  [[nodiscard]] bool approximate() const { return sketch_; }

  /// Quantile estimate, q in [0, 1]. Requires count() > 0. Exact regime:
  /// bit-identical to `core::percentile`. Sketch regime: within the
  /// documented relative-error bound (exact for the zero / +inf bands).
  [[nodiscard]] double quantile(double q) const;

 private:
  void sketch_add(double x);
  /// Value at integer rank r (0-based, ascending) in the sketch regime.
  [[nodiscard]] double sketch_rank_value(std::uint64_t r) const;

  std::size_t count_ = 0;
  bool sketch_ = false;

  // Exact regime: raw samples, sorted lazily at query time.
  mutable std::vector<double> exact_;
  mutable bool exact_sorted_ = false;

  // Sketch regime: zero band + log-spaced positive bins + +inf band.
  std::map<int, std::uint64_t> bins_;  ///< bin index -> sample count
  std::uint64_t zero_count_ = 0;
  std::uint64_t pos_count_ = 0;
  std::uint64_t inf_count_ = 0;
  double min_pos_ = 0.0;  ///< smallest positive finite sample (clamp floor)
  double max_pos_ = 0.0;  ///< largest positive finite sample (clamp ceiling)
};

/// On-disk layout of a spill stream.
enum class StreamFormat {
  kCsv,     ///< text rows; concat(shards) == the canonical monolithic CSV
  kBinary,  ///< fixed-width records (e.g. `FleetStreamRecord`), no header
};

struct StreamSinkConfig {
  /// Shard directory; created (recursively) if missing.
  std::string directory;
  /// Shards are `<basename>-NNNNN.csv|.bin` inside `directory`.
  std::string basename = "shard";
  /// Rows per shard before rotating to the next file. The bound on any
  /// single file's size — peak *memory* is bounded by the stdio buffer.
  std::size_t rows_per_shard = 65536;
  StreamFormat format = StreamFormat::kCsv;
};

/// Bounded spill writer: append-only rows sharded across files, rotated
/// every `rows_per_shard` rows. An optional header (the CSV column row) is
/// written to shard 0 only, so concatenating the shards in name order
/// reproduces the monolithic file byte for byte.
class StreamSink {
 public:
  explicit StreamSink(StreamSinkConfig cfg);
  ~StreamSink();
  StreamSink(const StreamSink&) = delete;
  StreamSink& operator=(const StreamSink&) = delete;

  /// Write the header line (must end in '\n') into shard 0. CSV format
  /// only; must precede the first `append`.
  void write_header(const std::string& header);

  /// Append one row/record verbatim. Rotates shards as configured.
  void append(const void* data, std::size_t bytes);

  /// Flush and close the current shard. Idempotent; the destructor calls it.
  void finish();

  [[nodiscard]] std::uint64_t rows() const { return rows_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] std::size_t shards() const { return shard_paths_.size(); }
  [[nodiscard]] const std::vector<std::string>& shard_paths() const { return shard_paths_; }
  [[nodiscard]] const StreamSinkConfig& config() const { return cfg_; }

 private:
  void open_next_shard();

  StreamSinkConfig cfg_;
  std::FILE* file_ = nullptr;
  std::uint64_t rows_ = 0;            ///< rows appended across all shards
  std::uint64_t bytes_ = 0;           ///< payload bytes (header included)
  std::size_t rows_in_shard_ = 0;
  bool header_written_ = false;
  std::vector<std::string> shard_paths_;
};

}  // namespace iob::core
