// Open-loop load generator: a seeded Poisson schedule of single-user
// queries sent over at most kThreads QueryClient connections from this
// process. Every latency is timed from the request's due time, so a stall
// also charges the requests queued behind it; nothing is retried
// (RetryPolicy of one attempt), and every OVERLOADED, TIMEOUT, transport
// error or wrong answer is counted as a failure.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "harness.h"
#include "serve/protocol.h"

namespace perfbench {

struct Arrival {
  double due_ms = 0.0;  // offset from the phase start
  int user = 0;
  bool topk = false;    // TopK k = kProbeK, otherwise Refine
};

/// TopK depth the generator asks for. It differs from the engine's K = 10,
/// so every TopK query re-scans a score row instead of reading the
/// precomputed sets.
constexpr int kProbeK = 20;

/// `requests` rounded to a whole number (at least one) of passes over
/// [0, num_users): a schedule of that length draws every user equally
/// often, so the few heavy users weigh the same in every run.
int WholePermutations(double requests, int num_users);

/// `requests` Poisson arrivals over `seconds` (the process conditioned on
/// its count, so the rate is requests / seconds) for users in
/// [0, num_users), a `topk_share` of them TopK. Deterministic in `seed`.
std::vector<Arrival> PoissonSchedule(uint64_t seed, int requests,
                                     double seconds, int num_users,
                                     double topk_share);

/// A closed loop as a schedule: `requests` arrivals all due at time zero,
/// so each connection sends its next request as soon as it has an answer.
std::vector<Arrival> ClosedLoopSchedule(uint64_t seed, int requests,
                                        int num_users, double topk_share);

/// Verdicts on answers (return false for a wrong answer).
struct Expectations {
  std::function<bool(int user, const dehealth::RefinedAnswer&)> refine;
  std::function<bool(int user, const dehealth::TopKAnswer&)> topk;
};

enum class Outcome { kNotSent, kOk, kOverloaded, kTimeout, kTransport, kWrong };

struct Sample {
  Outcome outcome = Outcome::kNotSent;
  double latency_ms = 0.0;  // completion - due time
  double rtt_ms = 0.0;      // completion - send
  /// The generator's own lateness: send - max(due, when a connection took
  /// the request). Waiting for a busy connection is backlog, not lateness.
  double late_ms = 0.0;
};

/// A phase's time zero: a little ahead of now, so every connection is up
/// before the first request falls due.
Clock::time_point PhaseZero();

/// Sends `schedule` (due times are offsets from `zero`) against
/// 127.0.0.1:`port` over `connections` clients. Returns one Sample per
/// arrival.
std::vector<Sample> RunOpenLoop(int port, const std::vector<Arrival>& schedule,
                                int connections,
                                const Expectations& expectations,
                                Clock::time_point zero);

/// Summary of one phase (a subset of arrivals may be selected by `keep`).
struct PhaseStats {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t overloaded = 0;
  uint64_t timeouts = 0;
  uint64_t transport = 0;
  uint64_t wrong = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double rtt_mean_ms = 0.0;
  double late_p99_ms = 0.0;
  /// Completions per second, first due time to last completion.
  double achieved_per_s = 0.0;
  /// Whether the last request completed within `limit_ms` of its due time
  /// (false = a backlog built up).
  bool drained = true;

  uint64_t failed() const { return overloaded + timeouts + transport + wrong; }
};

PhaseStats Summarize(const std::vector<Arrival>& schedule,
                     const std::vector<Sample>& samples,
                     const std::function<bool(size_t)>& keep, double limit_ms);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
