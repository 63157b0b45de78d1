#ifndef DEHEALTH_BENCH_BENCH_COMMON_H_
#define DEHEALTH_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "obs/metrics.h"

namespace dehealth::bench {

/// Prints the process-global metrics registry (non-zero metrics only) to
/// stderr at exit, so every bench binary reports the instrumentation
/// snapshot it ran under — e.g. the exact-evaluation count behind a Top-K
/// table. Safe at exit: Registry::Global() is a leaked singleton that
/// outlives static destructors.
inline void PrintMetricsSnapshot() {
  const std::string summary = obs::Registry::Global().RenderNonZeroSummary();
  if (summary.empty()) return;
  std::fprintf(stderr, "metrics snapshot:\n%s", summary.c_str());
}

namespace internal {
struct MetricsSnapshotAtExit {
  MetricsSnapshotAtExit() { std::atexit(PrintMetricsSnapshot); }
};
/// One registration per binary that includes this header.
inline MetricsSnapshotAtExit metrics_snapshot_at_exit;
}  // namespace internal

/// Prints a section banner for a reproduced table/figure.
inline void Banner(const char* experiment_id, const char* description) {
  std::printf("\n============================================================\n");
  std::printf("%s — %s\n", experiment_id, description);
  std::printf("============================================================\n");
}

/// Prints one row of labeled values: "label: v1 v2 v3 ...".
inline void PrintSeries(const std::string& label,
                        const std::vector<double>& values,
                        const char* fmt = "%8.3f") {
  std::printf("%-24s", label.c_str());
  for (double v : values) std::printf(fmt, v);
  std::printf("\n");
}

/// Prints a header row of x-axis values.
inline void PrintHeader(const std::string& label,
                        const std::vector<int>& xs) {
  std::printf("%-24s", label.c_str());
  for (int x : xs) std::printf("%8d", x);
  std::printf("\n");
}

/// Paper-vs-measured comparison line (for EXPERIMENTS.md extraction).
inline void Compare(const char* metric, double paper, double measured) {
  std::printf("  %-44s paper=%-10.3f measured=%.3f\n", metric, paper,
              measured);
}

/// Prints the thread configuration the harness runs under. All pipeline
/// stages are bitwise-deterministic in num_threads, so reproduced numbers
/// are comparable across machines regardless of this value.
inline void PrintThreadsInfo(int num_threads) {
  std::printf("threads: %d (hardware: %d) — results independent of "
              "thread count\n",
              ResolveNumThreads(num_threads), HardwareThreads());
}

}  // namespace dehealth::bench

#endif  // DEHEALTH_BENCH_BENCH_COMMON_H_
