// Serving-stack throughput: QPS and client-observed latency of a warm
// dehealth_serve engine versus the one-shot pipeline cost a dehealth_cli
// invocation pays, on the 20k-user benchmark forum.
//
// The one-shot baseline is the engine build (load + phase-1 precompute) +
// one query — exactly what every `dehealth_cli attack` run redoes from
// scratch. The warm rows then drive a real QueryServer over loopback with
// 1/2/4/8 concurrent clients issuing single-user refined-DA queries, so
// batching, admission control, and the wire protocol are all on the
// measured path.
//
//   bench_serve_throughput                            # JSON to stdout
//   bench_serve_throughput --out BENCH_serve.json     # written to a file
//   bench_serve_throughput --users 2000               # smaller forum
//
// Uses the candidate index (the serving configuration): at 20k users the
// dense similarity matrix alone would be ~3 GB.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/server.h"

namespace {

using namespace dehealth;

constexpr uint64_t kForumSeed = 77;
constexpr uint64_t kSplitSeed = 5;
constexpr int kRequestsPerClient = 200;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double Quantile(std::vector<double> sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  std::sort(sorted_ms.begin(), sorted_ms.end());
  const size_t rank = static_cast<size_t>(
      q * static_cast<double>(sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(rank, sorted_ms.size() - 1)];
}

struct ConcurrencyRow {
  int clients = 0;
  int requests = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t batches = 0;
  uint64_t max_batch = 0;
};

int Run(int num_users, const std::string& out_path) {
  std::fprintf(stderr, "generating %d-user forum...\n", num_users);
  auto forum = GenerateForum(WebMdLikeConfig(num_users, kForumSeed));
  if (!forum.ok()) {
    std::fprintf(stderr, "generate: %s\n", forum.status().ToString().c_str());
    return 1;
  }
  auto scenario = MakeClosedWorldScenario(forum->dataset, 0.5, kSplitSeed);
  if (!scenario.ok()) {
    std::fprintf(stderr, "split: %s\n", scenario.status().ToString().c_str());
    return 1;
  }
  UdaGraph anon = BuildUdaGraph(scenario->anonymized);
  UdaGraph aux = BuildUdaGraph(scenario->auxiliary);

  DeHealthConfig config;
  config.top_k = 10;
  config.refined.learner = LearnerKind::kNearestCentroid;

  // One-shot cost: everything a cold dehealth_cli run pays before its
  // first (and only) answer.
  std::fprintf(stderr, "building engine (one-shot cost)...\n");
  const auto build_start = std::chrono::steady_clock::now();
  auto engine = QueryEngine::Create(std::move(anon), std::move(aux), config);
  const double build_ms = MsSince(build_start);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  const int n = (*engine)->num_anonymized();

  ServerConfig server_config;
  server_config.max_queue = 256;
  QueryServer server(**engine, server_config);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }

  // Warm solo latency over the real wire; its median is the per-query
  // number the one-shot baseline is compared against.
  auto solo_client = QueryClient::Connect("127.0.0.1", server.port());
  if (!solo_client.ok()) {
    std::fprintf(stderr, "connect: %s\n",
                 solo_client.status().ToString().c_str());
    return 1;
  }
  std::vector<double> solo_ms;
  for (int r = 0; r < kRequestsPerClient; ++r) {
    const auto start = std::chrono::steady_clock::now();
    auto answer = solo_client->Refine({(r * 131) % n});
    if (!answer.ok()) {
      std::fprintf(stderr, "refine: %s\n",
                   answer.status().ToString().c_str());
      return 1;
    }
    solo_ms.push_back(MsSince(start));
  }
  const double warm_p50_ms = Quantile(solo_ms, 0.5);
  const double one_shot_ms = build_ms + warm_p50_ms;

  std::vector<ConcurrencyRow> rows;
  for (int clients : {1, 2, 4, 8}) {
    std::fprintf(stderr, "running %d concurrent clients...\n", clients);
    const ServerStatsSnapshot before = server.Stats();
    std::vector<std::vector<double>> latencies(
        static_cast<size_t>(clients));
    const auto wall_start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < clients; ++t) {
      threads.emplace_back([&, t] {
        auto client = QueryClient::Connect("127.0.0.1", server.port());
        if (!client.ok()) return;
        for (int r = 0; r < kRequestsPerClient; ++r) {
          const int user = (t * 9973 + r * 131) % n;
          const auto start = std::chrono::steady_clock::now();
          if (!client->Refine({user}).ok()) return;
          latencies[static_cast<size_t>(t)].push_back(MsSince(start));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall_ms = MsSince(wall_start);
    const ServerStatsSnapshot after = server.Stats();

    std::vector<double> all_ms;
    for (const auto& per_client : latencies)
      all_ms.insert(all_ms.end(), per_client.begin(), per_client.end());
    const int expected = clients * kRequestsPerClient;
    if (static_cast<int>(all_ms.size()) != expected) {
      std::fprintf(stderr, "%d clients: only %zu/%d requests succeeded\n",
                   clients, all_ms.size(), expected);
      return 1;
    }
    ConcurrencyRow row;
    row.clients = clients;
    row.requests = expected;
    row.qps = 1000.0 * static_cast<double>(expected) / wall_ms;
    row.p50_ms = Quantile(all_ms, 0.5);
    row.p99_ms = Quantile(all_ms, 0.99);
    row.batches = after.batches_total - before.batches_total;
    row.max_batch = after.max_batch;
    rows.push_back(row);
  }

  server.Shutdown();
  server.Wait();

  char buffer[512];
  std::string runs;
  for (const ConcurrencyRow& row : rows) {
    std::snprintf(buffer, sizeof buffer,
                  "{\"clients\": %d, \"requests\": %d, \"qps\": %.1f, "
                  "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"batches\": %llu, "
                  "\"max_batch\": %llu}",
                  row.clients, row.requests, row.qps, row.p50_ms, row.p99_ms,
                  static_cast<unsigned long long>(row.batches),
                  static_cast<unsigned long long>(row.max_batch));
    if (!runs.empty()) runs += ",\n    ";
    runs += buffer;
  }
  std::snprintf(
      buffer, sizeof buffer,
      "  \"one_shot\": {\"build_ms\": %.1f, \"per_query_ms\": %.1f},\n"
      "  \"warm\": {\"solo_p50_ms\": %.3f, \"solo_p99_ms\": %.3f, "
      "\"speedup_vs_one_shot\": %.1f},\n",
      build_ms, one_shot_ms, warm_p50_ms, Quantile(solo_ms, 0.99),
      one_shot_ms / warm_p50_ms);
  const std::string report =
      "{\n  \"benchmark\": \"bench_serve_throughput\",\n"
      "  \"description\": \"warm dehealth_serve QPS/latency (single-user "
      "refined-DA queries over loopback DHQP) vs the cold "
      "load+precompute+query cost a one-shot dehealth_cli run pays\",\n"
      "  \"config\": {\"forum_users\": " + std::to_string(num_users) +
      ", \"anonymized_users\": " + std::to_string(n) +
      ", \"top_k\": 10, \"learner\": \"centroid\", \"use_index\": true"
      ", \"requests_per_client\": " + std::to_string(kRequestsPerClient) +
      ", \"forum_seed\": " + std::to_string(kForumSeed) +
      ", \"split_seed\": " + std::to_string(kSplitSeed) + "},\n" + buffer +
      "  \"runs\": [\n    " + runs + "\n  ]\n}\n";
  if (out_path.empty()) {
    std::fputs(report.c_str(), stdout);
  } else {
    std::ofstream out(out_path);
    out << report;
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int num_users = 20000;
  std::string out_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--users") == 0)
      num_users = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
  }
  if (num_users < 2) {
    std::fprintf(stderr, "--users must be >= 2\n");
    return 1;
  }
  return Run(num_users, out_path);
}
