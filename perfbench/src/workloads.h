// The four perfbench workloads. Each has a prepare step (datagen, split,
// reference answers — never timed, run in its own process) and a measured
// run over the files the prepare step left in the run directory.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "core/de_health.h"
#include "harness.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the prepare step writes and the run reads.
  std::string dir;
  /// Harness self-test: forum sizes shrink to seconds of work.
  bool tiny = false;
  /// Harness self-test: corrupt one reference answer so the gate must trip.
  bool corrupt = false;
};

/// Threads for every parallel phase and the cap on load-generator
/// connections (the benchmark assumes a 4-core box).
constexpr int kThreads = 4;

/// The attack configuration every workload shares: K = 10, centroid
/// learner, kThreads threads; `idf` selects IDF-weighted attributes and
/// `index` the candidate-index score source.
dehealth::DeHealthConfig AttackConfig(bool idf, bool index);

int PrepareAttack(const Options& options);
int RunAttack(const Options& options);
int PrepareServeRead(const Options& options);
int RunServeRead(const Options& options);
int PrepareServeIngest(const Options& options);
int RunServeIngest(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
