#include "host.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>

#include "report.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

/// CPUs this process may run on (what `nproc` prints).
unsigned online_cpus() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&allowed));
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string isa_tier() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512bw")) return "AVX-512BW";
  if (__builtin_cpu_supports("avx2")) return "AVX2";
  if (__builtin_cpu_supports("sse2")) return "SSE2";
#endif
  return "portable";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

unsigned bench_threads() { return std::min(4u, online_cpus()); }

void rotate_onto_cpu(unsigned k) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  int skip = static_cast<int>(k % static_cast<unsigned>(CPU_COUNT(&allowed)));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    break;
  }
  pthread_setaffinity_np(pthread_self(), sizeof(allowed), &allowed);
}

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::string host_facts_json(unsigned sweep_threads, unsigned engine_threads) {
  return "{\"nproc\": " + std::to_string(online_cpus()) +
         ", \"cpu_model\": " + json_string(cpu_model()) + ", \"isa_tier\": " +
         json_string(isa_tier()) + ", \"compiler\": " + json_string(compiler()) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"sweep_threads\": " + std::to_string(sweep_threads) +
         ", \"engine_threads\": " + std::to_string(engine_threads) + "}";
}

}  // namespace perfbench
