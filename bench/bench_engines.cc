// Head-to-head attack-engine comparison: the structural kernel (the
// paper's attack), the seed-free blind engine, and the community-matched
// engine rank the SAME auxiliary universes for the SAME anonymized users
// over several forum seeds, and each engine's success-rate curve (== the
// rank CDF of the true identity, sampled at the K cutoffs) lands in one
// JSON report — the number that says what community structure or a
// seed-free prior buys over pure structural similarity.
//
//   bench_engines                              # JSON to stdout
//   bench_engines --out BENCH_engines.json     # written to a file
//   bench_engines --users 200 --seeds 2        # smaller sweep
//
// Plain binary (no google-benchmark): the deliverable is the curve, not a
// latency distribution; per-engine build time (score source plus the rank
// pass) is reported as a mean.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/engine_kind.h"
#include "core/evaluation.h"
#include "core/uda_graph.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "index/pipeline.h"

namespace {

using namespace dehealth;

constexpr double kAuxFraction = 0.5;
const std::vector<int> kKs = {1, 2, 5, 10, 20, 50};

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// One engine's numbers accumulated across every seed: ranks of the true
/// identity pooled over all evaluated users, build time summed per run.
struct EngineAccumulator {
  std::vector<int> ranks;
  double build_ms_total = 0.0;
  int runs = 0;
};

int Run(int num_users, int num_seeds, int threads,
        const std::string& out_path) {
  std::vector<EngineAccumulator> acc(AllEngineKinds().size());
  for (int s = 0; s < num_seeds; ++s) {
    const uint64_t forum_seed = 100 + static_cast<uint64_t>(s);
    const uint64_t split_seed = 7 + static_cast<uint64_t>(s);
    std::fprintf(stderr, "seed %d/%d: generating %d-user forum...\n",
                 s + 1, num_seeds, num_users);
    auto forum = GenerateForum(WebMdLikeConfig(num_users, forum_seed));
    if (!forum.ok()) {
      std::fprintf(stderr, "generate: %s\n",
                   forum.status().ToString().c_str());
      return 1;
    }
    auto scenario =
        MakeClosedWorldScenario(forum->dataset, kAuxFraction, split_seed);
    if (!scenario.ok()) {
      std::fprintf(stderr, "split: %s\n",
                   scenario.status().ToString().c_str());
      return 1;
    }
    const UdaGraph anon = BuildUdaGraph(scenario->anonymized);
    const UdaGraph aux = BuildUdaGraph(scenario->auxiliary);

    for (size_t e = 0; e < AllEngineKinds().size(); ++e) {
      DeHealthConfig config;
      config.engine = AllEngineKinds()[e];
      config.num_threads = threads;
      const auto start = std::chrono::steady_clock::now();
      auto bundle = BuildAttackScoreSource(anon, aux, config);
      if (!bundle.ok()) {
        std::fprintf(stderr, "%s: %s\n",
                     EngineKindName(config.engine),
                     bundle.status().ToString().c_str());
        return 1;
      }
      // The timer covers the rank pass too: the structural engine scores
      // its pairs there, the matrix engines while building.
      const std::vector<int> ranks =
          TrueIdentityRanks(*(*bundle)->source, scenario->truth, threads);
      acc[e].build_ms_total += MsSince(start);
      acc[e].runs += 1;
      acc[e].ranks.insert(acc[e].ranks.end(), ranks.begin(), ranks.end());
    }
  }

  std::ostringstream json;
  json << "{\n  \"benchmark\": \"bench_engines\",\n"
       << "  \"description\": \"head-to-head success-rate/rank-CDF curves "
          "of the structural, blind, and community attack engines over "
          "the same WebMD-like closed-world splits\",\n"
       << "  \"config\": {\"forum_users\": " << num_users
       << ", \"seeds\": " << num_seeds << ", \"aux_fraction\": "
       << kAuxFraction << ", \"threads\": " << threads << ", \"ks\": [";
  for (size_t i = 0; i < kKs.size(); ++i)
    json << (i ? ", " : "") << kKs[i];
  json << "]},\n  \"engines\": [\n";
  for (size_t e = 0; e < AllEngineKinds().size(); ++e) {
    const EngineAccumulator& a = acc[e];
    if (a.ranks.empty()) {
      std::fprintf(stderr, "no evaluated users — forum too small?\n");
      return 1;
    }
    json << "    {\"engine\": \"" << EngineKindName(AllEngineKinds()[e])
         << "\", \"evaluated\": " << a.ranks.size() << ", \"success_at\": [";
    for (size_t i = 0; i < kKs.size(); ++i) {
      int hits = 0;
      for (const int rank : a.ranks)
        if (rank <= kKs[i]) ++hits;
      json << (i ? ", " : "")
           << static_cast<double>(hits) / static_cast<double>(a.ranks.size());
    }
    double sum = 0.0;
    for (const int rank : a.ranks) sum += rank;
    json << "], \"mean_rank\": "
         << sum / static_cast<double>(a.ranks.size())
         << ", \"build_ms_mean\": " << a.build_ms_total / a.runs << "}"
         << (e + 1 < AllEngineKinds().size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  if (out_path.empty()) {
    std::fputs(json.str().c_str(), stdout);
  } else {
    std::ofstream out(out_path);
    out << json.str();
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
  int num_users = 1000;
  int num_seeds = 3;
  int threads = 4;
  std::string out_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--users") == 0)
      num_users = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--seeds") == 0)
      num_seeds = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--threads") == 0)
      threads = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
  }
  if (num_users < 2 || num_seeds < 1) {
    std::fprintf(stderr, "--users must be >= 2 and --seeds >= 1\n");
    return 1;
  }
  return Run(num_users, num_seeds, threads, out_path);
}
