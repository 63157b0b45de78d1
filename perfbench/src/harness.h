// Shared plumbing of the perfbench workloads: clocks, order statistics,
// process memory readings, answer checksums, the small text files the
// prepare step hands to the measured process, and the Report every run
// prints as its last stdout line for run.py.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/top_k.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to);
double MsSince(Clock::time_point from);

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// A "Vm*" field of /proc/self/status in MB (VmHWM = peak resident set,
/// VmRSS = current); 0 when unreadable.
double ProcStatusMb(const char* field);

/// Returns freed heap memory to the kernel and restarts the VmHWM peak, so
/// the next ProcStatusMb("VmHWM") is the peak of what runs in between.
void ResetPeakRss();

/// FNV-1a over answer vectors: equal checksums <=> equal answers, for the
/// correctness gates and the pinned per-seed table.
uint64_t ChecksumCandidates(const dehealth::CandidateSets& candidates);
uint64_t ChecksumInts(const std::vector<int>& values);

/// Whitespace-separated integer rows, one row per line (the format of the
/// expected-answer files the prepare step writes).
bool WriteIntRows(const std::string& path,
                  const std::vector<std::vector<long long>>& rows);
bool ReadIntRows(const std::string& path,
                 std::vector<std::vector<long long>>* rows);

/// What one run reports: named values with units, correctness checks, and
/// the attempted/failed operation counts. Printed by Emit() as one JSON
/// line; run.py turns it into the benchmark's result line.
class Report {
 public:
  void Value(const std::string& name, double value, const std::string& unit);
  /// A correctness verdict, counted as one attempted operation; a failed
  /// check is a failed operation and makes the run incorrect.
  void Check(const std::string& name, bool ok, const std::string& detail);
  void Note(const std::string& name, const std::string& text);
  void Attempted(uint64_t n) { attempted_ += n; }
  void Failed(uint64_t n) { failed_ += n; }

  void Emit() const;

 private:
  std::string values_;
  std::string checks_;
  std::string notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
