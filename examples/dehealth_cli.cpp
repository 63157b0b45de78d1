// dehealth_cli: drive the library from the command line over JSONL forum
// datasets — the adoption path for running De-Health on your own data.
//
//   dehealth_cli generate --preset webmd|hb --users 300 --seed 7
//                         --out d.jsonl
//   dehealth_cli split    --dataset d.jsonl --aux-fraction 0.5 --seed 3
//                         --anon-out anon.jsonl --aux-out aux.jsonl
//                         --truth-out truth.csv
//   dehealth_cli attack   --anonymized anon.jsonl --auxiliary aux.jsonl
//                         --k 10 --engine structural --learner smo
//                         --threads 0 [--idf] [--filter]
//                         [--index-path idx.dhix]
//                         [--job-dir dir] [--shard-size N]
//                         [--truth truth.csv] [--out predictions.csv]
//                         [--trace-out trace.json] [--metrics-out m.prom]
//   dehealth_cli evaluate --anonymized anon.jsonl --auxiliary aux.jsonl
//                         --truth truth.csv
//                         [--engines structural,blind,community]
//                         [--ks 1,2,5,10,20,50] [--out results.json]
//
// --engine selects the phase-1 attack engine: structural (default, the
// paper's attack), blind (seed-free), or community (community-matched) —
// see docs/ENGINES.md. `evaluate` runs several engines head-to-head over
// the SAME forums and truth mapping and reports each engine's
// success-rate/rank-CDF curve at the --ks cutoffs.
// --threads N runs the whole pipeline on N threads (0 = all hardware
// threads, the default); results are identical for any value.
// The structural engine scores through the auxiliary-side candidate index
// and never forms the |Δ1|×|Δ2| matrix (see DESIGN.md "Candidate index");
// --index-path persists the index as a snapshot reused across runs.
// Splitting the auxiliary universe across processes is the fleet's job
// (dehealth_serve --shard-count behind dehealth_router).
// Unknown flags, and values of --preset, --engine, --learner or --simd
// outside their lists, exit 1 (see docs/OPERATIONS.md for the catalog).
// --job-dir runs the attack through the crash-safe job runner: completed
// work is committed in checksummed shards, SIGTERM/SIGINT checkpoints and
// exits cleanly (exit 0), and re-running the same command resumes from the
// last durable shard with bitwise-identical output (any thread count, any
// kill point). See DESIGN.md "Fault tolerance".
// --fault-spec (all commands, also dehealth_serve) arms deterministic
// fault injection for testing, e.g. "job.phase2:crash:2".
// --trace-out records a span trace of the attack (.json = Chrome
// trace_event format, anything else JSONL) and --metrics-out writes the
// run's metric registry in Prometheus text format; neither changes any
// output byte. See docs/TRACING.md and docs/METRICS.md.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <algorithm>
#include <chrono>

#include "common/fault_injection.h"
#include "common/flags.h"
#include "common/shutdown.h"
#include "core/de_health.h"
#include "core/evaluation.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "index/pipeline.h"
#include "io/forum_io.h"
#include "job/runner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/options.h"

using namespace dehealth;

namespace {

/// Flag parsing lives in FlagParser (src/common/flags.h) and the
/// attack-config mapping in ParseAttackFlags (src/serve/options.h) — both
/// shared with dehealth_serve so the one-shot and served pipelines cannot
/// drift apart.
using Args = FlagParser;

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

/// Unwraps a StatusOr flag lookup or exits the command with the parse
/// error: CLI_ASSIGN_OR_FAIL(int, users, args.GetInt("users", 300));
#define CLI_ASSIGN_OR_FAIL(type, name, expr)                             \
  auto name##_or = (expr);                                               \
  if (!(name##_or).ok()) return Fail((name##_or).status().ToString());   \
  const type name = *(name##_or)

int CmdGenerate(const Args& args) {
  const std::string preset = args.Get("preset", "webmd");
  CLI_ASSIGN_OR_FAIL(int, users, args.GetInt("users", 300));
  CLI_ASSIGN_OR_FAIL(int, seed_value, args.GetInt("seed", 1));
  if (users < 1) return Fail("--users must be >= 1");
  const auto seed = static_cast<uint64_t>(seed_value);
  const std::string out = args.Get("out");
  if (out.empty()) return Fail("generate requires --out");

  if (preset != "webmd" && preset != "hb")
    return Fail("--preset must be webmd or hb (got '" + preset + "')");
  const ForumConfig config = preset == "hb"
                                 ? HealthBoardsLikeConfig(users, seed)
                                 : WebMdLikeConfig(users, seed);
  auto forum = GenerateForum(config);
  if (!forum.ok()) return Fail(forum.status().ToString());
  Status st = SaveForumDataset(forum->dataset, out);
  if (!st.ok()) return Fail(st.ToString());
  const DatasetStats stats = ComputeDatasetStats(forum->dataset);
  std::printf("wrote %s: %d users, %d posts (%.2f posts/user)\n",
              out.c_str(), stats.num_users, stats.num_posts,
              stats.mean_posts_per_user);
  return 0;
}

int CmdSplit(const Args& args) {
  const std::string in = args.Get("dataset");
  const std::string anon_out = args.Get("anon-out");
  const std::string aux_out = args.Get("aux-out");
  const std::string truth_out = args.Get("truth-out");
  if (in.empty() || anon_out.empty() || aux_out.empty())
    return Fail("split requires --dataset, --anon-out, --aux-out");

  auto dataset = LoadForumDataset(in);
  if (!dataset.ok()) return Fail(dataset.status().ToString());
  CLI_ASSIGN_OR_FAIL(double, overlap, args.GetDouble("overlap", 0.0));
  CLI_ASSIGN_OR_FAIL(double, aux_fraction,
                     args.GetDouble("aux-fraction", 0.5));
  CLI_ASSIGN_OR_FAIL(int, seed_value, args.GetInt("seed", 1));
  const auto seed = static_cast<uint64_t>(seed_value);
  StatusOr<DaScenario> scenario =
      overlap > 0.0
          ? MakeOpenWorldScenario(*dataset, overlap, seed)
          : MakeClosedWorldScenario(*dataset, aux_fraction, seed);
  if (!scenario.ok()) return Fail(scenario.status().ToString());

  Status st = SaveForumDataset(scenario->anonymized, anon_out);
  if (st.ok()) st = SaveForumDataset(scenario->auxiliary, aux_out);
  if (!st.ok()) return Fail(st.ToString());
  if (!truth_out.empty()) {
    std::ofstream truth(truth_out);
    truth << "anon_id,aux_id\n";
    for (size_t u = 0; u < scenario->truth.size(); ++u)
      truth << u << "," << scenario->truth[u] << "\n";
  }
  std::printf("split %s: %d anonymized users, %d auxiliary users\n",
              in.c_str(), scenario->anonymized.num_users,
              scenario->auxiliary.num_users);
  return 0;
}

/// Loads a truth CSV written by `split` (header line, then
/// "anon_id,aux_id" rows). Rows naming users outside [0, n) are ignored;
/// absent users stay kNoTrueMapping.
StatusOr<std::vector<int>> LoadTruthCsv(const std::string& path, size_t n) {
  std::ifstream truth_file(path);
  if (!truth_file)
    return Status::InvalidArgument("cannot open truth file '" + path + "'");
  std::vector<int> truth(n, DaScenario::kNoTrueMapping);
  std::string line;
  std::getline(truth_file, line);  // header
  while (std::getline(truth_file, line)) {
    std::istringstream row(line);
    std::string a, b;
    if (std::getline(row, a, ',') && std::getline(row, b)) {
      const size_t u = static_cast<size_t>(std::atoi(a.c_str()));
      if (u < truth.size()) truth[u] = std::atoi(b.c_str());
    }
  }
  return truth;
}

/// Stops the tracer and flushes the trace file on every CmdAttack return
/// path (success, failure, AND the checkpointed early return under
/// SIGTERM — a resumable job should still leave a usable partial trace).
struct TraceFlusher {
  ~TraceFlusher() {
    Status st = obs::Tracer::Global().Stop();
    if (!st.ok())
      std::fprintf(stderr, "warning: %s\n", st.ToString().c_str());
  }
};

int CmdAttack(const Args& args) {
  const std::string anon_path = args.Get("anonymized");
  const std::string aux_path = args.Get("auxiliary");
  if (anon_path.empty() || aux_path.empty())
    return Fail("attack requires --anonymized and --auxiliary");

  // Tracing never touches an RNG stream or any result byte (see
  // src/obs/trace.h), so a traced run's outputs are bitwise-identical to
  // an untraced run's — the determinism test holds the binary to this.
  const std::string trace_out = args.Get("trace-out");
  if (!trace_out.empty()) {
    Status st = obs::Tracer::Global().Start(trace_out);
    if (!st.ok()) return Fail(st.ToString());
  }
  TraceFlusher trace_flusher;

  // Written on every return path too: a checkpointed (killed) run's
  // counters are exactly what an operator wants when deciding whether the
  // resume is making progress.
  struct MetricsWriter {
    std::string path;
    ~MetricsWriter() {
      if (path.empty()) return;
      std::ofstream out(path, std::ios::trunc);
      out << obs::Registry::Global().RenderPrometheus();
      if (!out)
        std::fprintf(stderr, "warning: failed writing metrics to '%s'\n",
                     path.c_str());
    }
  } metrics_writer{args.Get("metrics-out")};

  auto anon_data = LoadForumDataset(anon_path);
  if (!anon_data.ok()) return Fail(anon_data.status().ToString());
  auto aux_data = LoadForumDataset(aux_path);
  if (!aux_data.ok()) return Fail(aux_data.status().ToString());

  auto config_or = ParseAttackFlags(args);
  if (!config_or.ok()) return Fail(config_or.status().ToString());
  const DeHealthConfig& config = *config_or;

  std::printf("building UDA graphs (%zu + %zu posts)...\n",
              anon_data->posts.size(), aux_data->posts.size());
  const UdaGraph anon = BuildUdaGraph(*anon_data, config.num_threads);
  const UdaGraph aux = BuildUdaGraph(*aux_data, config.num_threads);
  const bool checkpointed = !config.job_dir.empty();
  // Checkpointed path: SIGTERM/SIGINT finish the current shard, commit
  // it, and surface Cancelled — which is a clean exit, not an error (the
  // job is resumable, nothing was lost).
  if (checkpointed) InstallShutdownSignalHandlers();
  StatusOr<DeHealthResult> result =
      checkpointed ? RunDeHealthAttackJob(anon, aux, config)
                   : RunDeHealthAttack(anon, aux, config);
  if (!result.ok() && result.status().code() == StatusCode::kCancelled) {
    std::printf("checkpointed: %s\n", result.status().message().c_str());
    return 0;
  }
  if (!result.ok()) return Fail(result.status().ToString());

  const std::string out = args.Get("out");
  if (!out.empty()) {
    std::ofstream csv(out);
    csv << "anon_id,prediction,top_candidates\n";
    for (size_t u = 0; u < result->refined.predictions.size(); ++u) {
      csv << u << "," << result->refined.predictions[u] << ",\"";
      const auto& c = result->candidates[u];
      for (size_t i = 0; i < c.size(); ++i)
        csv << (i ? " " : "") << c[i];
      csv << "\"\n";
    }
    std::printf("wrote predictions to %s\n", out.c_str());
  }

  // Optional evaluation against a truth CSV written by `split`.
  const std::string truth_path = args.Get("truth");
  if (!truth_path.empty()) {
    auto truth_or =
        LoadTruthCsv(truth_path, result->refined.predictions.size());
    if (!truth_or.ok()) return Fail(truth_or.status().ToString());
    const std::vector<int>& truth = *truth_or;
    const double top_k = TopKSuccessRate(result->candidates, truth);
    const OpenWorldCounts counts =
        EvaluateRefinedDa(result->refined, truth);
    std::printf("top-%d success: %.1f%%   accuracy: %.1f%%   FP: %.1f%%\n",
                config.top_k, 100.0 * top_k, 100.0 * counts.Accuracy(),
                100.0 * counts.FalsePositiveRate());
  }
  return 0;
}

/// One engine's head-to-head numbers: the rank of every user's true
/// auxiliary identity under that engine's exact scores, summarized as a
/// success-rate curve (== the rank CDF sampled at the --ks cutoffs).
struct EngineCurve {
  EngineKind engine;
  double build_seconds = 0.0;
  int evaluated = 0;                // users with a true mapping
  std::vector<double> success_at;   // success_at[i] = P(rank <= ks[i])
  double mean_rank = 0.0;
  double median_rank = 0.0;
};

int CmdEvaluate(const Args& args) {
  const std::string anon_path = args.Get("anonymized");
  const std::string aux_path = args.Get("auxiliary");
  const std::string truth_path = args.Get("truth");
  if (anon_path.empty() || aux_path.empty() || truth_path.empty())
    return Fail("evaluate requires --anonymized, --auxiliary, --truth");

  // The head-to-head contract is "same forums, same truth, exact scores":
  // every engine ranks the full auxiliary universe for every user, so the
  // curves differ only by engine. Knobs that do not fit that contract are
  // rejected rather than silently ignored.
  auto config_or = ParseAttackFlags(args);
  if (!config_or.ok()) return Fail(config_or.status().ToString());
  DeHealthConfig config = *config_or;
  if (!config.index_snapshot_path.empty())
    return Fail("evaluate builds every engine's scores afresh; "
                "--index-path does not apply");
  if (config.shard_count > 1)
    return Fail("evaluate needs the full auxiliary universe; "
                "--shard-count does not apply");
  if (!config.job_dir.empty())
    return Fail("evaluate is not checkpointable; --job-dir does not apply");

  std::vector<EngineKind> engines;
  {
    std::istringstream list(
        args.Get("engines", "structural,blind,community"));
    std::string name;
    while (std::getline(list, name, ',')) {
      auto kind = ParseEngineKind(name);
      if (!kind.ok()) return Fail(kind.status().ToString());
      engines.push_back(*kind);
    }
    if (engines.empty()) return Fail("--engines names no engine");
  }
  std::vector<int> ks;
  {
    std::istringstream list(args.Get("ks", "1,2,5,10,20,50"));
    std::string value;
    while (std::getline(list, value, ',')) {
      const int k = std::atoi(value.c_str());
      if (k < 1) return Fail("--ks values must be integers >= 1");
      if (!ks.empty() && k <= ks.back())
        return Fail("--ks values must be strictly ascending");
      ks.push_back(k);
    }
    if (ks.empty()) return Fail("--ks names no cutoff");
  }

  auto anon_data = LoadForumDataset(anon_path);
  if (!anon_data.ok()) return Fail(anon_data.status().ToString());
  auto aux_data = LoadForumDataset(aux_path);
  if (!aux_data.ok()) return Fail(aux_data.status().ToString());
  const UdaGraph anon = BuildUdaGraph(*anon_data, config.num_threads);
  const UdaGraph aux = BuildUdaGraph(*aux_data, config.num_threads);
  auto truth_or =
      LoadTruthCsv(truth_path, static_cast<size_t>(anon.num_users()));
  if (!truth_or.ok()) return Fail(truth_or.status().ToString());
  const std::vector<int>& truth = *truth_or;

  std::vector<EngineCurve> curves;
  for (const EngineKind engine : engines) {
    config.engine = engine;
    const auto start = std::chrono::steady_clock::now();
    auto bundle = BuildAttackScoreSource(anon, aux, config);
    if (!bundle.ok()) return Fail(bundle.status().ToString());
    // build-s covers the rank pass too: the structural engine scores its
    // pairs there, the matrix engines while building.
    const std::vector<int> ranks =
        TrueIdentityRanks(*(*bundle)->source, truth, config.num_threads);
    EngineCurve curve;
    curve.engine = engine;
    curve.build_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    curve.evaluated = static_cast<int>(ranks.size());
    if (ranks.empty())
      return Fail("truth CSV maps no anonymized user into the auxiliary "
                  "universe — nothing to evaluate");
    for (const int k : ks) {
      int hits = 0;
      for (const int rank : ranks)
        if (rank <= k) ++hits;
      curve.success_at.push_back(static_cast<double>(hits) /
                                 static_cast<double>(ranks.size()));
    }
    double sum = 0.0;
    for (const int rank : ranks) sum += rank;
    curve.mean_rank = sum / static_cast<double>(ranks.size());
    std::vector<int> sorted = ranks;
    std::sort(sorted.begin(), sorted.end());
    const size_t mid = sorted.size() / 2;
    curve.median_rank =
        sorted.size() % 2 == 1
            ? sorted[mid]
            : (sorted[mid - 1] + sorted[mid]) / 2.0;
    curves.push_back(std::move(curve));
  }

  // Table: one engine per row, one success@K column per cutoff.
  std::printf("%-12s", "engine");
  for (const int k : ks) std::printf("  s@%-5d", k);
  std::printf("  %-10s  %-11s  %s\n", "mean-rank", "median-rank",
              "build-s");
  for (const EngineCurve& curve : curves) {
    std::printf("%-12s", EngineKindName(curve.engine));
    for (const double s : curve.success_at)
      std::printf("  %6.1f%%", 100.0 * s);
    std::printf("  %-10.1f  %-11.1f  %.2f\n", curve.mean_rank,
                curve.median_rank, curve.build_seconds);
  }
  std::printf("(%d of %d anonymized users have a true auxiliary "
              "identity)\n",
              curves.front().evaluated, anon.num_users());

  const std::string out = args.Get("out");
  if (!out.empty()) {
    std::ofstream json(out, std::ios::trunc);
    json << "{\n  \"num_anonymized\": " << anon.num_users()
         << ",\n  \"num_auxiliary\": " << aux.num_users()
         << ",\n  \"evaluated\": " << curves.front().evaluated
         << ",\n  \"ks\": [";
    for (size_t i = 0; i < ks.size(); ++i) json << (i ? ", " : "") << ks[i];
    json << "],\n  \"engines\": [\n";
    for (size_t e = 0; e < curves.size(); ++e) {
      const EngineCurve& curve = curves[e];
      json << "    {\"engine\": \"" << EngineKindName(curve.engine)
           << "\", \"success_at\": [";
      for (size_t i = 0; i < curve.success_at.size(); ++i)
        json << (i ? ", " : "") << curve.success_at[i];
      json << "], \"mean_rank\": " << curve.mean_rank
           << ", \"median_rank\": " << curve.median_rank
           << ", \"build_seconds\": " << curve.build_seconds << "}"
           << (e + 1 < curves.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    if (!json) return Fail("failed writing results to '" + out + "'");
    std::printf("wrote results to %s\n", out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: dehealth_cli <generate|split|attack|evaluate> "
                 "[--flag value ...]\n");
    return 1;
  }
  const std::string command = argv[1];
  const Args args(argc, argv, 2, AttackBooleanFlags());
  if (Status st = RejectUnknownFlags(args); !st.ok())
    return Fail(st.ToString());
  // Deterministic fault injection (tests only): "<site>:<kind>:<hit>,..."
  // — see src/common/fault_injection.h for the grammar.
  const std::string fault_spec = args.Get("fault-spec");
  if (!fault_spec.empty()) {
    Status st = FaultInjector::Global().Configure(fault_spec);
    if (!st.ok()) return Fail(st.ToString());
  }
  if (command == "generate") return CmdGenerate(args);
  if (command == "split") return CmdSplit(args);
  if (command == "attack") return CmdAttack(args);
  if (command == "evaluate") return CmdEvaluate(args);
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return 1;
}
