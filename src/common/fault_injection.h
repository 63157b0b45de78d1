#ifndef DEHEALTH_COMMON_FAULT_INJECTION_H_
#define DEHEALTH_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <string>
#include <string_view>

#include "common/status.h"

namespace dehealth {

/// Deterministic fault injection for the I/O and job layers.
///
/// Every fallible syscall-shaped operation in io/file_util, io/forum_io,
/// index/snapshot, io/socket and the job runner passes through a named
/// *injection point* ("file.write_atomic", "socket.read", "job.phase2",
/// ...). In production nothing is registered and each point is a single
/// relaxed atomic load. Tests and the CLI binaries (`--fault-spec`) arm
/// the global registry with rules that fire on exact hit counts, so a
/// fault sequence is a pure function of the spec and the (deterministic)
/// order of operations — the same spec kills the same run at the same
/// byte every time, which is what makes kill-and-resume tests provable
/// instead of flaky.
///
/// Spec grammar (comma-separated rules):
///
///   <site>:<kind>:<hit>[:<count>]
///
///   site   injection-point name (see DESIGN.md "Fault tolerance" for the
///          registry of sites); names ending in ".data" are data sites
///   kind   fail | enospc | short | flip | reset | stall | crash — data
///          sites take flip | short | crash, all other sites take every
///          kind but flip; a mismatch is rejected, never silently inert
///   hit    1-based hit number of `site` on which the rule starts firing
///   count  consecutive hits it keeps firing for (default 1; 0 = forever)
///
/// Example: "file.write_atomic:enospc:2,socket.read:reset:1:0" — the 2nd
/// atomic file write fails like a full disk, and every socket read sees a
/// connection reset.
enum class FaultKind {
  kFail,    // generic Internal error
  kEnospc,  // write-side failure shaped like a full disk (Internal)
  kShort,   // truncation: data faults drop the second half of the buffer
  kFlip,    // corruption: data faults flip one bit mid-buffer
  kReset,   // Unavailable, shaped like ECONNRESET/ECONNREFUSED
  kStall,   // injects a short blocking delay, then succeeds
  kCrash,   // terminates the process immediately via _exit (no cleanup)
};

/// Exit code used by FaultKind::kCrash — distinguishable from the normal
/// error exits (1) in kill-and-resume scripts.
inline constexpr int kFaultCrashExitCode = 86;

class FaultInjector {
 public:
  /// The process-wide registry every injection point consults.
  static FaultInjector& Global();

  /// Parses and arms a fault spec (see the grammar above). Replaces any
  /// previously configured rules. An empty spec disarms (same as Reset).
  /// InvalidArgument on a malformed rule, unknown kind, a kind its site
  /// cannot apply, or bad counts.
  Status Configure(const std::string& spec);

  /// Disarms all rules and clears every hit counter.
  void Reset();

  /// True when at least one rule is armed (the fast-path check).
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Records one hit of `site` and returns the fault to apply, if a rule
  /// fires on this hit. Thread-safe; counters are per-site.
  /// Returns false (no fault) when disarmed or no rule matches.
  bool Hit(std::string_view site, FaultKind* kind);

 private:
  FaultInjector() = default;
  struct Impl;
  Impl* impl();  // lazily constructed, intentionally leaked

  std::atomic<bool> enabled_{false};
  std::atomic<Impl*> impl_{nullptr};
};

/// Status-shaped injection point: returns OK when disarmed or no rule
/// fires; otherwise the injected error (kFail/kEnospc → Internal,
/// kReset → Unavailable, kShort → Internal truncation error). kStall
/// sleeps ~50 ms then returns OK. kCrash calls _exit(kFaultCrashExitCode).
Status InjectFaultPoint(const char* site);

/// Data-corrupting injection point: applies a fired kFlip (one bit flipped
/// at the buffer midpoint) or kShort (second half dropped) to *data and
/// returns true. Other kinds behave like InjectFaultPoint would, reported
/// through the returned status of the enclosing operation — call
/// InjectFaultPoint for those; this helper only services flip/short.
bool InjectDataFault(const char* site, std::string* data);

}  // namespace dehealth

#endif  // DEHEALTH_COMMON_FAULT_INJECTION_H_
