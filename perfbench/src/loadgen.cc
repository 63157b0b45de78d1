#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <string>
#include <thread>

#include "common/rng.h"
#include "serve/client.h"

namespace perfbench {

using namespace dehealth;

namespace {

/// Users and query kinds for `requests` arrivals. Users come in seeded
/// permutations of [0, num_users), and in pass r user u asks a TopK when
/// (u + r) falls on every (1 / topk_share)-th slot. So the users and the
/// (user, kind) pairs of each pass are fixed and only their order depends
/// on the seed: the few users with very many posts (whose Refine costs
/// tens of ms) are never over- or under-drawn by chance, and neither is a
/// heavy user's Refine swapped for a cheap TopK.
void AssignRequests(Rng& rng, int num_users, double topk_share,
                    std::vector<Arrival>* schedule) {
  std::vector<int> order(static_cast<size_t>(num_users));
  size_t next = order.size();
  int pass = -1;
  for (size_t i = 0; i < schedule->size(); ++i) {
    if (next == order.size()) {
      for (int u = 0; u < num_users; ++u) order[static_cast<size_t>(u)] = u;
      for (size_t j = order.size(); j > 1; --j)
        std::swap(order[j - 1], order[rng.NextBounded(j)]);
      next = 0;
      ++pass;
    }
    Arrival& arrival = (*schedule)[i];
    arrival.user = order[next++];
    const double slot = arrival.user + pass;
    arrival.topk =
        std::floor((slot + 1.0) * topk_share) > std::floor(slot * topk_share);
  }
}

}  // namespace

int WholePermutations(double requests, int num_users) {
  const double rounds =
      std::max(1.0, std::round(requests / std::max(num_users, 1)));
  return static_cast<int>(rounds) * num_users;
}

std::vector<Arrival> PoissonSchedule(uint64_t seed, int requests,
                                     double seconds, int num_users,
                                     double topk_share) {
  // A Poisson process conditioned on its count: the arrival times are
  // `requests` uniform draws over the window, in order.
  Rng rng(seed);
  std::vector<Arrival> schedule(static_cast<size_t>(std::max(requests, 0)));
  for (Arrival& arrival : schedule)
    arrival.due_ms = rng.NextDouble() * 1000.0 * seconds;
  std::sort(schedule.begin(), schedule.end(),
            [](const Arrival& a, const Arrival& b) {
              return a.due_ms < b.due_ms;
            });
  AssignRequests(rng, num_users, topk_share, &schedule);
  return schedule;
}

std::vector<Arrival> ClosedLoopSchedule(uint64_t seed, int requests,
                                        int num_users, double topk_share) {
  Rng rng(seed);
  std::vector<Arrival> schedule(static_cast<size_t>(std::max(requests, 0)));
  AssignRequests(rng, num_users, topk_share, &schedule);
  return schedule;
}

namespace {

Outcome Classify(const Status& status) {
  if (status.code() == StatusCode::kDeadlineExceeded) return Outcome::kTimeout;
  if (status.code() == StatusCode::kUnavailable &&
      std::string(status.message()).find("overloaded") != std::string::npos)
    return Outcome::kOverloaded;
  return Outcome::kTransport;
}

}  // namespace

Clock::time_point PhaseZero() {
  return Clock::now() + std::chrono::milliseconds(50);
}

std::vector<Sample> RunOpenLoop(int port, const std::vector<Arrival>& schedule,
                                int connections,
                                const Expectations& expectations,
                                Clock::time_point zero) {
  std::vector<Sample> samples(schedule.size());
  std::atomic<size_t> next{0};
  const auto worker = [&] {
    StatusOr<QueryClient> client = QueryClient::Connect("127.0.0.1", port);
    if (!client.ok()) return;  // its share goes to the other connections
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= schedule.size()) return;
      const Arrival& arrival = schedule[i];
      const Clock::time_point due =
          zero + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(
                         arrival.due_ms));
      const Clock::time_point taken = Clock::now();
      if (taken < due) std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      Sample& sample = samples[i];
      if (arrival.topk) {
        StatusOr<TopKAnswer> answer = client->TopK({arrival.user}, kProbeK);
        sample.outcome =
            !answer.ok() ? Classify(answer.status())
            : expectations.topk(arrival.user, *answer) ? Outcome::kOk
                                                       : Outcome::kWrong;
      } else {
        StatusOr<RefinedAnswer> answer = client->Refine({arrival.user});
        sample.outcome =
            !answer.ok() ? Classify(answer.status())
            : expectations.refine(arrival.user, *answer) ? Outcome::kOk
                                                         : Outcome::kWrong;
      }
      const Clock::time_point done = Clock::now();
      sample.latency_ms = MsBetween(due, done);
      sample.rtt_ms = MsBetween(sent, done);
      sample.late_ms = MsBetween(std::max(due, taken), sent);
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  return samples;
}

PhaseStats Summarize(const std::vector<Arrival>& schedule,
                     const std::vector<Sample>& samples,
                     const std::function<bool(size_t)>& keep,
                     double limit_ms) {
  PhaseStats stats;
  std::vector<double> latency, rtt, late;
  double first_due = -1.0, last_done = 0.0, last_due = 0.0, last_lag = 0.0;
  for (size_t i = 0; i < samples.size(); ++i) {
    if (!keep(i)) continue;
    const Sample& s = samples[i];
    ++stats.sent;  // a request never sent still counts, as a failure
    switch (s.outcome) {
      case Outcome::kOk: ++stats.ok; break;
      case Outcome::kOverloaded: ++stats.overloaded; break;
      case Outcome::kTimeout: ++stats.timeouts; break;
      case Outcome::kWrong: ++stats.wrong; break;
      case Outcome::kTransport:
      case Outcome::kNotSent: ++stats.transport; break;
    }
    if (s.outcome != Outcome::kOk) continue;
    latency.push_back(s.latency_ms);
    rtt.push_back(s.rtt_ms);
    late.push_back(s.late_ms);
    const double due = schedule[i].due_ms;
    if (first_due < 0.0) first_due = due;
    last_done = std::max(last_done, due + s.latency_ms);
    if (due >= last_due) {
      last_due = due;
      last_lag = s.latency_ms;
    }
  }
  stats.p50_ms = Quantile(latency, 0.50);
  stats.p99_ms = Quantile(latency, 0.99);
  if (!rtt.empty())
    stats.rtt_mean_ms = std::accumulate(rtt.begin(), rtt.end(), 0.0) /
                        static_cast<double>(rtt.size());
  stats.late_p99_ms = Quantile(late, 0.99);
  if (stats.ok > 0 && last_done > first_due)
    stats.achieved_per_s =
        1000.0 * static_cast<double>(stats.ok) / (last_done - first_due);
  stats.drained = last_lag <= limit_ms;
  return stats;
}

}  // namespace perfbench
