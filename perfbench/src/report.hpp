#pragma once
/// \file report.hpp
/// What one benchmark run reports: named metrics with units, and the tally
/// of operations attempted and failed (every correctness check counts).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// Round-trip-exact JSON number (all digits, so runs compare exactly).
inline std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::invalid_argument("non-finite value cannot be reported");
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// JSON string literal (quotes, backslashes and control bytes escaped).
inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Ordered metric set. Names and units are validated on entry, names are
/// unique, and values must be finite.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (!valid_metric_name(name)) throw std::invalid_argument("bad metric name: " + name);
    if (!valid_unit(unit)) throw std::invalid_argument("bad unit for " + name + ": " + unit);
    if (!std::isfinite(value)) throw std::invalid_argument("non-finite value for " + name);
    for (const Entry& e : entries_) {
      if (e.name == name) throw std::invalid_argument("duplicate metric: " + name);
    }
    entries_.push_back({name, value, unit});
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// `{"name": {"value": v, "unit": "u"}, ...}` in insertion order.
  [[nodiscard]] std::string to_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (i > 0) out += ", ";
      out += json_string(e.name) + ": {\"value\": " + json_number(e.value) +
             ", \"unit\": " + json_string(e.unit) + "}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Operation tally. `ops` counts workload operations that completed;
/// `check` counts one checked operation and records whether it held.
struct Outcome {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void ops(std::uint64_t n) { attempted += n; }

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "perfbench: check failed: " << what << "\n";
    }
  }

  [[nodiscard]] double ok_ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(attempted - failed) / static_cast<double>(attempted);
  }

  /// The result line: exactly the keys correct / attempted / failed / metrics.
  [[nodiscard]] std::string result_json() const {
    return std::string("{\"correct\": ") + (failed == 0 && attempted > 0 ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) + ", \"metrics\": " + metrics.to_json() + "}";
  }
};

}  // namespace perfbench
