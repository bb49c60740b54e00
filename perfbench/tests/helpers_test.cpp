// Self-tests for the benchmark's helpers: order statistics, metric-name and
// unit validation, and the result-line format. Exits non-zero on failure.

#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "report.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

bool throws(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void test_median_and_quantile() {
  using perfbench::median;
  using perfbench::quantile;
  expect(median({3.0}) == 3.0, "median of one sample");
  expect(median({5.0, 1.0, 3.0}) == 3.0, "median of odd count is the middle value");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of even count averages the middle pair");
  expect(quantile({10.0, 20.0, 30.0, 40.0, 50.0}, 0.0) == 10.0, "q=0 is the minimum");
  expect(quantile({10.0, 20.0, 30.0, 40.0, 50.0}, 1.0) == 50.0, "q=1 is the maximum");
  // rank 0.1 * 4 = 0.4 -> 10 + 0.4 * 10
  expect(std::abs(quantile({50.0, 10.0, 40.0, 20.0, 30.0}, 0.1) - 14.0) < 1e-12,
         "q=0.1 interpolates between the two lowest ranks");
  expect(quantile({7.0, 7.0, 7.0}, 0.25) == 7.0, "constant samples give that constant");
  expect(throws([] { (void)median({}); }), "median of no samples throws");
  expect(throws([] { (void)quantile({1.0}, 1.5); }), "q outside [0,1] throws");
  expect(throws([] { (void)quantile({1.0}, std::nan("")); }), "NaN q throws");
}

void test_metric_names() {
  using perfbench::valid_metric_name;
  expect(valid_metric_name("setup_s"), "plain name");
  expect(valid_metric_name("nn.kws.int8.op12.us_per_item"), "dotted name");
  expect(valid_metric_name("net.run.us_per_point.n32"), "name with digits");
  expect(valid_metric_name("9lives-x"), "leading digit and dash");
  expect(valid_metric_name(std::string(64, 'a')), "64 characters");
  expect(!valid_metric_name(std::string(65, 'a')), "65 characters rejected");
  expect(!valid_metric_name(""), "empty rejected");
  expect(!valid_metric_name(".hidden"), "leading dot rejected");
  expect(!valid_metric_name("_x"), "leading underscore rejected");
  expect(!valid_metric_name("a b"), "space rejected");
  expect(!valid_metric_name("a/b"), "slash rejected");
}

void test_units() {
  using perfbench::valid_unit;
  for (const char* u : {"ms", "s", "1/s", "count", "%", "GMAC/s", "sim_s", "uJ", "MiB"}) {
    expect(valid_unit(u), u);
  }
  expect(!valid_unit(""), "empty unit rejected");
  expect(!valid_unit(std::string(17, 's')), "17-character unit rejected");
  expect(!valid_unit("m s"), "space in unit rejected");
}

void test_metrics_and_result_line() {
  perfbench::Outcome out;
  out.metrics.set("latency_ms", 1.25, "ms");
  out.metrics.set("setup_s", 0.5, "s");
  expect(throws([&] { out.metrics.set("latency_ms", 2.0, "ms"); }), "duplicate name throws");
  expect(throws([&] { out.metrics.set("bad name", 2.0, "ms"); }), "invalid name throws");
  expect(throws([&] { out.metrics.set("x", 2.0, "bad unit"); }), "invalid unit throws");
  expect(throws([&] { out.metrics.set("y", std::numeric_limits<double>::infinity(), "s"); }),
         "non-finite value throws");
  out.ops(3);
  out.check(true, "holds");
  expect(out.attempted == 4 && out.failed == 0, "ops and passing checks are attempted");
  expect(out.result_json() ==
             "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": "
             "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
             "\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}",
         "result line format");
  out.check(false, "deliberately failing check (expected in this test)");
  expect(out.failed == 1 && out.ok_ratio() == 0.8, "a failed check counts against the ratio");
  expect(out.result_json().rfind("{\"correct\": false", 0) == 0, "a failure marks incorrect");
  expect(perfbench::json_number(0.1) == "0.10000000000000001", "numbers keep all digits");
  expect(perfbench::json_string("a\"b\\c\n") == "\"a\\\"b\\\\c\\u000a\"", "string escaping");
}

}  // namespace

int main() {
  test_median_and_quantile();
  test_metric_names();
  test_units();
  test_metrics_and_result_line();
  if (g_failures == 0) std::puts("perfbench helpers: all checks passed");
  return g_failures == 0 ? 0 : 1;
}
