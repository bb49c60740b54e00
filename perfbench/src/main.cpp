// perfbench: runs one named workload of the simulator from a seed, checks
// its outputs, and prints every metric by name with its unit. The last line
// of standard output is the result object; the line before it records the
// host facts. `perfbench/run.py` builds this binary and validates the
// result against BENCHMARK.json.
//
//   perfbench --workload <fleet_sweep|hub_saturation|hub_interactive>
//             --seed <n> --seconds <s> --trace <0|1> --out <dir>

#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "host.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos || v.size() > 20) {
    throw std::invalid_argument(flag + " needs a non-negative integer, got '" + v + "'");
  }
  return std::stoull(v);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = parse_u64(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(flag, value);
      if (s < 1 || s > 600) throw std::invalid_argument("--seconds must be in [1, 600]");
      opt.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace must be 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--out") {
      opt.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (opt.workload.empty() || !have_seed || opt.out_dir.empty()) {
    throw std::invalid_argument("--workload, --seed and --out are required");
  }
  opt.threads = perfbench::bench_threads();
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse_args(argc, argv);
    std::filesystem::create_directories(opt.out_dir);
    perfbench::Outcome out;
    if (opt.workload == "fleet_sweep") {
      perfbench::run_fleet_sweep(opt, out);
    } else if (opt.workload == "hub_saturation") {
      perfbench::run_hub_saturation(opt, out);
    } else if (opt.workload == "hub_interactive") {
      perfbench::run_hub_interactive(opt, out);
    } else {
      throw std::invalid_argument("unknown workload '" + opt.workload + "'");
    }
    const std::string host = perfbench::host_facts_json(opt.threads, opt.threads);
    const std::string result = out.result_json();
    std::ofstream record(opt.out_dir + "/result-" + opt.workload + "-seed" +
                         std::to_string(opt.seed) + "-trace" + (opt.trace ? "1" : "0") +
                         ".json");
    record << "{\"host\": " << host << ", \"result\": " << result << "}\n";
    std::cout << "host " << host << "\n" << result << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
