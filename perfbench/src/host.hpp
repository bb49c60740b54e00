#pragma once
/// \file host.hpp
/// Host facts recorded with every result, and process-level measurements.

#include <string>

namespace perfbench {

/// Threads the benchmark uses everywhere: min(4, online CPUs).
unsigned bench_threads();

/// Moves the calling thread onto the k-th CPU it may run on (k modulo the
/// allowed count), then allows every CPU again. A running thread stays
/// where it is, so rotating k between repetitions spreads a run's
/// repetitions over the host's CPUs: on a host whose vCPUs differ in speed,
/// one vCPU no longer sets a whole run's result. Best effort: a failed
/// affinity call leaves the thread where it was.
void rotate_onto_cpu(unsigned k);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// One JSON object: nproc, CPU model, ISA tier (the benchmark's own
/// `__builtin_cpu_supports` probe: SSE2, AVX2 or AVX-512BW), compiler,
/// build type, and the sweep / engine thread counts in use.
std::string host_facts_json(unsigned sweep_threads, unsigned engine_threads);

}  // namespace perfbench
