// Dense-vs-indexed phase-1 scaling: time and peak RSS for answering ~500
// anonymized Top-K queries against auxiliary sides of 1k / 5k / 20k users.
// The dense path materializes a 500×n2 similarity matrix; the indexed path
// (src/index) answers the same queries — bitwise-identically, see
// tests/index — with one FeatureStore row scan per query, ranked by
// TopKForRow, and never holds more than one row.
//
// Peak RSS is process-wide and monotone, so each (mode, n2) cell runs in
// its own process:
//
//   bench_index_scaling                          # all cells -> JSON report
//   bench_index_scaling --out BENCH_index.json   # same, written to a file
//   bench_index_scaling --n2 5000 --mode indexed # one cell, one JSON line
//
// Sharded cells (run automatically at the largest n2, or by hand):
//
//   bench_index_scaling --n2 20000 --mode shard-prep --shards 8 --dir D
//   bench_index_scaling --mode sharded --shards 8 --dir D      # merged row
//   bench_index_scaling --mode shard-slice --shards 8 --shard-index 0 --dir D
//
// `sharded` scatter-gathers over all N shard snapshots and must reproduce
// the dense/indexed checksum; `shard-slice` loads exactly one shard, so
// its peak RSS is the per-backend footprint of a router fleet (~1/N of
// the indexed row's index share).
//
// Timings are wall-clock; `prepare` is index build/load (or similarity
// precompute), `topk` is the 500 queries.

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/de_health.h"
#include "core/top_k.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "index/candidate_index.h"
#include "index/indexed_source.h"
#include "index/snapshot.h"
#include "shard/partition.h"
#include "shard/shard_index.h"

namespace {

using namespace dehealth;

constexpr int kNumQueries = 500;
constexpr int kTopK = 10;
constexpr uint64_t kForumSeed = 77;
constexpr uint64_t kSplitSeed = 5;

long PeakRssKb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // kilobytes on Linux
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

uint64_t CandidatesChecksum(const CandidateSets& candidates) {
  uint64_t checksum = 1469598103934665603ULL;
  for (const auto& row : candidates)
    for (int v : row)
      checksum = (checksum ^ static_cast<uint64_t>(v)) * 1099511628211ULL;
  return checksum;
}

/// Runs one (mode, n2) cell and prints a single-line JSON object.
int RunCell(int n2, const std::string& mode) {
  auto forum = GenerateForum(WebMdLikeConfig(n2, kForumSeed));
  if (!forum.ok()) {
    std::fprintf(stderr, "generate: %s\n", forum.status().ToString().c_str());
    return 1;
  }
  auto scenario = MakeClosedWorldScenario(forum->dataset, 0.5, kSplitSeed);
  if (!scenario.ok()) {
    std::fprintf(stderr, "split: %s\n", scenario.status().ToString().c_str());
    return 1;
  }

  // Query side: the first kNumQueries users' anonymized posts. The
  // auxiliary side keeps all n2 users — that is the axis being scaled.
  const int num_queries = std::min(kNumQueries, n2);
  ForumDataset anon_subset;
  anon_subset.num_users = num_queries;
  anon_subset.num_threads = scenario->anonymized.num_threads;
  for (const Post& post : scenario->anonymized.posts)
    if (post.user_id < num_queries) anon_subset.posts.push_back(post);

  const UdaGraph anon = BuildUdaGraph(anon_subset);
  const UdaGraph aux = BuildUdaGraph(scenario->auxiliary);
  const long setup_rss_kb = PeakRssKb();

  SimilarityConfig config;
  double prepare_ms = 0.0;
  double topk_ms = 0.0;
  CandidateSets candidates;
  if (mode == "dense") {
    auto start = std::chrono::steady_clock::now();
    const StructuralSimilarity similarity(anon, aux, config);
    prepare_ms = MsSince(start);
    start = std::chrono::steady_clock::now();
    const auto matrix = similarity.ComputeMatrix();
    auto sets = SelectTopKCandidates(matrix, kTopK);
    topk_ms = MsSince(start);
    if (!sets.ok()) {
      std::fprintf(stderr, "topk: %s\n", sets.status().ToString().c_str());
      return 1;
    }
    candidates = *std::move(sets);
  } else {
    auto start = std::chrono::steady_clock::now();
    auto index = CandidateIndex::Build(aux, config);
    prepare_ms = MsSince(start);
    if (!index.ok()) {
      std::fprintf(stderr, "build: %s\n", index.status().ToString().c_str());
      return 1;
    }
    start = std::chrono::steady_clock::now();
    std::vector<CandidateIndex> slices;
    slices.push_back(std::move(index).value());
    const IndexedCandidateSource source(anon, std::move(slices));
    auto sets = source.TopK(kTopK, /*num_threads=*/0);
    topk_ms = MsSince(start);
    if (!sets.ok()) {
      std::fprintf(stderr, "topk: %s\n", sets.status().ToString().c_str());
      return 1;
    }
    candidates = *std::move(sets);
  }

  // Checksum over the candidate sets: identical between modes by the
  // exactness contract, and keeps the work from being optimized away.
  const uint64_t checksum = CandidatesChecksum(candidates);

  std::printf(
      "{\"mode\": \"%s\", \"aux_users\": %d, \"anon_users\": %d, "
      "\"prepare_ms\": %.1f, \"topk_ms\": %.1f, \"total_ms\": %.1f, "
      "\"setup_peak_rss_kb\": %ld, \"peak_rss_kb\": %ld, "
      "\"candidates_checksum\": %llu}\n",
      mode.c_str(), aux.num_users(), anon.num_users(), prepare_ms, topk_ms,
      prepare_ms + topk_ms, setup_rss_kb, PeakRssKb(),
      static_cast<unsigned long long>(checksum));
  return 0;
}

/// One shard's local Top-K for a query under GLOBAL ids, with scores —
/// what a fleet backend answers: a row scan of the slice ranked by
/// TopKForRow. `row` is scratch of slice.num_auxiliary() doubles.
std::vector<ScoredUser> SliceTopK(const CandidateIndex& slice,
                                  const IndexedUserFeatures& query,
                                  std::vector<double>* row) {
  slice.ExactRowTo(query, row->data());
  const int begin = static_cast<int>(slice.data().shard_begin);
  std::vector<ScoredUser> scored;
  for (const int local : TopKForRow(*row, kTopK))
    scored.push_back({(*row)[static_cast<size_t>(local)], local + begin});
  return scored;
}

/// Generates the dataset once, writes the N shard snapshots plus a
/// "queries" snapshot (the anonymized users' precomputed features smuggled
/// through the DHIX format), so the per-shard cells below can run WITHOUT
/// the forum generator or graphs resident — their peak RSS is the shard's.
int RunShardPrep(int n2, int shards, const std::string& dir) {
  auto forum = GenerateForum(WebMdLikeConfig(n2, kForumSeed));
  if (!forum.ok()) {
    std::fprintf(stderr, "generate: %s\n", forum.status().ToString().c_str());
    return 1;
  }
  auto scenario = MakeClosedWorldScenario(forum->dataset, 0.5, kSplitSeed);
  if (!scenario.ok()) {
    std::fprintf(stderr, "split: %s\n", scenario.status().ToString().c_str());
    return 1;
  }
  const int num_queries = std::min(kNumQueries, n2);
  ForumDataset anon_subset;
  anon_subset.num_users = num_queries;
  anon_subset.num_threads = scenario->anonymized.num_threads;
  for (const Post& post : scenario->anonymized.posts)
    if (post.user_id < num_queries) anon_subset.posts.push_back(post);
  const UdaGraph anon = BuildUdaGraph(anon_subset);
  const UdaGraph aux = BuildUdaGraph(scenario->auxiliary);

  std::filesystem::create_directories(dir);
  const SimilarityConfig config;
  auto built = BuildShardIndexes(dir + "/aux.dhix", aux, config, shards);
  if (!built.ok()) {
    std::fprintf(stderr, "shards: %s\n", built.status().ToString().c_str());
    return 1;
  }
  // Any shard can compute query features: the idf table is GLOBAL.
  CandidateIndexData queries = (*built)[0].data();
  queries.users = (*built)[0].ComputeQueryFeatures(anon);
  queries.shard_index = 0;
  queries.shard_count = 1;
  queries.shard_begin = 0;
  queries.shard_total = static_cast<uint32_t>(queries.users.size());
  auto query_index = CandidateIndex::FromData(std::move(queries));
  if (!query_index.ok()) {
    std::fprintf(stderr, "queries: %s\n",
                 query_index.status().ToString().c_str());
    return 1;
  }
  Status saved = SaveIndexSnapshot(*query_index, dir + "/queries.dhix");
  if (!saved.ok()) {
    std::fprintf(stderr, "save: %s\n", saved.ToString().c_str());
    return 1;
  }
  return 0;
}

/// One shard slice in isolation: loads only its own snapshot (1/N of the
/// universe) and the query features, then answers every query locally.
/// peak_rss_kb here is THE sharding payoff — compare against the indexed
/// row at the same n2.
int RunShardSlice(int shards, int shard_index, const std::string& dir) {
  auto start = std::chrono::steady_clock::now();
  auto queries = LoadIndexSnapshot(dir + "/queries.dhix");
  auto shard = LoadIndexSnapshot(
      ShardSnapshotPath(dir + "/aux.dhix", shard_index, shards));
  if (!queries.ok() || !shard.ok()) {
    std::fprintf(stderr, "load failed\n");
    return 1;
  }
  const double prepare_ms = MsSince(start);
  const long setup_rss_kb = PeakRssKb();

  start = std::chrono::steady_clock::now();
  uint64_t checksum = 1469598103934665603ULL;
  std::vector<double> row(static_cast<size_t>(shard->num_auxiliary()));
  for (const IndexedUserFeatures& query : queries->data().users)
    for (const ScoredUser& c : SliceTopK(*shard, query, &row))
      checksum = (checksum ^ static_cast<uint64_t>(c.user)) * 1099511628211ULL;
  const double topk_ms = MsSince(start);
  std::printf(
      "{\"mode\": \"shard-slice\", \"shards\": %d, \"shard_index\": %d, "
      "\"aux_users\": %d, \"anon_users\": %d, "
      "\"prepare_ms\": %.1f, \"topk_ms\": %.1f, \"total_ms\": %.1f, "
      "\"setup_peak_rss_kb\": %ld, \"peak_rss_kb\": %ld, "
      "\"candidates_checksum\": %llu}\n",
      shards, shard_index, shard->num_auxiliary(),
      static_cast<int>(queries->data().users.size()), prepare_ms, topk_ms,
      prepare_ms + topk_ms, setup_rss_kb, PeakRssKb(),
      static_cast<unsigned long long>(checksum));
  return 0;
}

/// Scatter-gather over all N shard snapshots in one process: per-shard
/// Top-K lists (SliceTopK) merged with the router's merge kernel,
/// MergeScoredTopK. The checksum must
/// equal the dense/indexed rows' at the same n2 — the bitwise-identity
/// contract, measured rather than assumed.
int RunShardedMerged(int shards, const std::string& dir) {
  auto start = std::chrono::steady_clock::now();
  auto queries = LoadIndexSnapshot(dir + "/queries.dhix");
  if (!queries.ok()) {
    std::fprintf(stderr, "queries: %s\n",
                 queries.status().ToString().c_str());
    return 1;
  }
  std::vector<CandidateIndex> slices;
  for (int i = 0; i < shards; ++i) {
    auto shard =
        LoadIndexSnapshot(ShardSnapshotPath(dir + "/aux.dhix", i, shards));
    if (!shard.ok()) {
      std::fprintf(stderr, "shard %d: %s\n", i,
                   shard.status().ToString().c_str());
      return 1;
    }
    slices.push_back(*std::move(shard));
  }
  const double prepare_ms = MsSince(start);
  const long setup_rss_kb = PeakRssKb();

  start = std::chrono::steady_clock::now();
  CandidateSets candidates;
  std::vector<std::vector<ScoredUser>> per_shard(
      static_cast<size_t>(shards));
  std::vector<double> row;
  for (const IndexedUserFeatures& query : queries->data().users) {
    for (int i = 0; i < shards; ++i) {
      const CandidateIndex& slice = slices[static_cast<size_t>(i)];
      row.resize(static_cast<size_t>(slice.num_auxiliary()));
      per_shard[static_cast<size_t>(i)] = SliceTopK(slice, query, &row);
    }
    const std::vector<ScoredUser> merged =
        MergeScoredTopK(per_shard, kTopK);
    candidates.emplace_back();
    for (const ScoredUser& c : merged) candidates.back().push_back(c.user);
  }
  const double topk_ms = MsSince(start);
  std::printf(
      "{\"mode\": \"sharded\", \"shards\": %d, "
      "\"aux_users\": %u, \"anon_users\": %d, "
      "\"prepare_ms\": %.1f, \"topk_ms\": %.1f, \"total_ms\": %.1f, "
      "\"setup_peak_rss_kb\": %ld, \"peak_rss_kb\": %ld, "
      "\"candidates_checksum\": %llu}\n",
      shards, slices.front().data().shard_total,
      static_cast<int>(queries->data().users.size()), prepare_ms, topk_ms,
      prepare_ms + topk_ms, setup_rss_kb, PeakRssKb(),
      static_cast<unsigned long long>(CandidatesChecksum(candidates)));
  return 0;
}

/// Re-execs this binary with `args`; the child's stdout (one JSON row, or
/// nothing for prep cells) lands in *line. Each cell needs its own process
/// because peak RSS is process-wide and monotone.
int RunChild(const std::string& args, std::string* line) {
  // /proc/self/exe must be resolved here: inside popen's shell it would
  // point at the shell binary, not this benchmark.
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (len <= 0) {
    std::fprintf(stderr, "readlink(/proc/self/exe) failed\n");
    return 1;
  }
  exe[len] = '\0';
  const std::string command = "'" + std::string(exe) + "' " + args;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    std::fprintf(stderr, "popen failed\n");
    return 1;
  }
  line->clear();
  char buffer[512];
  while (fgets(buffer, sizeof buffer, pipe) != nullptr) *line += buffer;
  if (pclose(pipe) != 0) {
    std::fprintf(stderr, "cell `%s` failed\n", args.c_str());
    return 1;
  }
  while (!line->empty() && line->back() == '\n') line->pop_back();
  return 0;
}

/// Re-runs this binary once per cell and assembles the JSON report.
int RunAll(const std::string& out_path) {
  const std::vector<int> sizes = {1000, 5000, 20000};
  std::string runs;
  std::string line;
  for (int n2 : sizes) {
    for (const char* mode : {"dense", "indexed"}) {
      std::fprintf(stderr, "running n2=%d mode=%s...\n", n2, mode);
      if (RunChild("--n2 " + std::to_string(n2) + " --mode " + mode,
                   &line) != 0)
        return 1;
      if (!runs.empty()) runs += ",\n    ";
      runs += line;
    }
  }

  // Sharded cells at the largest size: the merged scatter-gather row (its
  // checksum must equal the dense/indexed rows above) and one shard slice
  // per fleet size, whose peak RSS is ~1/N of the indexed row's.
  const int shard_n2 = sizes.back();
  const std::string dir =
      (std::filesystem::temp_directory_path() / "bench_index_shards")
          .string();
  for (int shards : {2, 8}) {
    std::fprintf(stderr, "running n2=%d shards=%d...\n", shard_n2, shards);
    std::filesystem::remove_all(dir);
    const std::string base = " --shards " + std::to_string(shards) +
                             " --dir '" + dir + "'";
    if (RunChild("--n2 " + std::to_string(shard_n2) +
                     " --mode shard-prep" + base,
                 &line) != 0)
      return 1;
    if (RunChild("--mode sharded" + base, &line) != 0) return 1;
    runs += ",\n    " + line;
    if (RunChild("--mode shard-slice --shard-index 0" + base, &line) != 0)
      return 1;
    runs += ",\n    " + line;
  }
  std::filesystem::remove_all(dir);
  const std::string report =
      "{\n  \"benchmark\": \"bench_index_scaling\",\n"
      "  \"description\": \"phase-1 Top-" + std::to_string(kTopK) +
      " for " + std::to_string(kNumQueries) +
      " anonymized users: dense similarity matrix vs candidate index vs"
      " sharded scatter-gather, all three bitwise-identical (see"
      " tests/index and tests/shard). Indexed Top-K is one FeatureStore"
      " row scan per query ranked by TopKForRow; shard-slice rows show"
      " the per-backend RSS of an N-shard fleet\",\n"
      "  \"config\": {\"num_queries\": " + std::to_string(kNumQueries) +
      ", \"top_k\": " + std::to_string(kTopK) +
      ", \"forum_seed\": " + std::to_string(kForumSeed) +
      ", \"split_seed\": " + std::to_string(kSplitSeed) + "},\n"
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
  int n2 = 0;
  int shards = 0;
  int shard_index = 0;
  std::string mode;
  std::string out_path;
  std::string dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--n2") == 0) n2 = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--mode") == 0) mode = argv[i + 1];
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
    if (std::strcmp(argv[i], "--shards") == 0)
      shards = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--shard-index") == 0)
      shard_index = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--dir") == 0) dir = argv[i + 1];
  }
  if (mode == "shard-prep") return RunShardPrep(n2, shards, dir);
  if (mode == "sharded") return RunShardedMerged(shards, dir);
  if (mode == "shard-slice") return RunShardSlice(shards, shard_index, dir);
  if (n2 > 0 && !mode.empty()) return RunCell(n2, mode);
  return RunAll(out_path);
}
