// attack-webmd / attack-webmd-idf: a closed loop of whole one-shot attacks
// (`dehealth_cli attack` without the process start). One repeat loads both
// JSONL forums kLoadsPerRepeat times (setup_s), then runs loaded forums ->
// predictions CSV (attack_s) by calling each layer's public entry point in
// turn, inside a bench span named after the layer:
//   io.load   LoadForumDataset x2
//   uda       BuildUdaGraph x2
//   score     BuildAttackScoreSource (dense similarity matrix)
//   topk      DeHealth::SelectCandidates
//   refined   RunRefinedDa
//   io.write  predictions CSV
// The gate: every repeat's candidate and prediction checksums are equal
// (run.py also compares them with the pinned per-seed table).
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluation.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "index/pipeline.h"
#include "io/forum_io.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {

using namespace dehealth;

namespace {

/// The forum stands for the crawled WebMD dataset, so it is the same for
/// every seed; the seed draws the anonymized/auxiliary split.
constexpr uint64_t kForumSeed = 7;
int ForumUsers(const Options& options) { return options.tiny ? 120 : 2000; }
constexpr int kMinRepeats = 3;
constexpr int kMaxRepeats = 50;
/// The load is about 3% of a repeat, so it is timed several times per
/// repeat; setup_s is the median over every load of the run.
constexpr int kLoadsPerRepeat = 3;

bool IsIdf(const Options& options) {
  return options.workload == "attack-webmd-idf";
}

struct Repeat {
  std::vector<double> load_ms;  // one per load
  double attack_ms = 0.0;
  double rss_uda_mb = 0.0;
  double rss_score_mb = 0.0;
  double peak_mb = 0.0;
  uint64_t candidates_checksum = 0;
  uint64_t predictions_checksum = 0;
};

struct Evaluation {
  double top_k_success = 0.0;
  double accuracy = 0.0;
  int anonymized = 0;
  int auxiliary = 0;
  size_t posts = 0;
};

Status RunOnce(const Options& options, const DeHealthConfig& config,
               const std::vector<int>& truth, Repeat* repeat,
               Evaluation* evaluation) {
  ForumDataset anon_data, aux_data;
  for (int l = 0; l < kLoadsPerRepeat; ++l) {
    const auto load_start = Clock::now();
    obs::Span span("bench", "io.load");
    StatusOr<ForumDataset> anon =
        LoadForumDataset(options.dir + "/anon.jsonl");
    if (!anon.ok()) return anon.status();
    StatusOr<ForumDataset> aux = LoadForumDataset(options.dir + "/aux.jsonl");
    if (!aux.ok()) return aux.status();
    anon_data = std::move(anon).value();
    aux_data = std::move(aux).value();
    repeat->load_ms.push_back(MsSince(load_start));
  }

  const auto attack_start = Clock::now();
  UdaGraph anon, aux;
  DeHealthCandidates selected;
  RefinedDaResult refined;
  {
    // The attack span covers exactly what attack_ms times.
    obs::Span attack_span("bench", "attack");
    {
      obs::Span span("bench", "uda");
      anon = BuildUdaGraph(anon_data);
      aux = BuildUdaGraph(aux_data);
    }
    repeat->rss_uda_mb = ProcStatusMb("VmRSS");
    std::unique_ptr<AttackScoreSource> scores;
    {
      obs::Span span("bench", "score");
      StatusOr<std::unique_ptr<AttackScoreSource>> built =
          BuildAttackScoreSource(anon, aux, config);
      if (!built.ok()) return built.status();
      scores = std::move(built).value();
    }
    repeat->rss_score_mb = ProcStatusMb("VmRSS");
    const DeHealth attack(config);
    {
      obs::Span span("bench", "topk");
      StatusOr<DeHealthCandidates> state =
          attack.SelectCandidates(*scores->source);
      if (!state.ok()) return state.status();
      selected = std::move(state).value();
    }
    {
      obs::Span span("bench", "refined");
      RefinedDaConfig refined_config = config.refined;
      refined_config.num_threads = config.num_threads;
      StatusOr<RefinedDaResult> result =
          RunRefinedDa(anon, aux, selected.candidates, &selected.rejected,
                       *scores->source, refined_config);
      if (!result.ok()) return result.status();
      refined = std::move(result).value();
    }
    {
      obs::Span span("bench", "io.write");
      std::ofstream csv(options.dir + "/predictions.csv", std::ios::trunc);
      csv << "anon_id,prediction,top_candidates\n";
      for (size_t u = 0; u < refined.predictions.size(); ++u) {
        csv << u << "," << refined.predictions[u] << ",\"";
        const auto& c = selected.candidates[u];
        for (size_t i = 0; i < c.size(); ++i) csv << (i ? " " : "") << c[i];
        csv << "\"\n";
      }
      if (!csv) return Status::Internal("cannot write predictions.csv");
    }
    repeat->attack_ms = MsSince(attack_start);
  }
  repeat->candidates_checksum = ChecksumCandidates(selected.candidates);
  repeat->predictions_checksum = ChecksumInts(refined.predictions);

  evaluation->top_k_success = TopKSuccessRate(selected.candidates, truth);
  evaluation->accuracy = EvaluateRefinedDa(refined, truth).Accuracy();
  evaluation->anonymized = anon.num_users();
  evaluation->auxiliary = aux.num_users();
  evaluation->posts = anon_data.posts.size() + aux_data.posts.size();
  return Status::OK();
}

double MedianOf(const std::vector<Repeat>& repeats, double Repeat::*field) {
  std::vector<double> values;
  for (const Repeat& r : repeats) values.push_back(r.*field);
  return Median(values);
}

}  // namespace

DeHealthConfig AttackConfig(bool idf, bool index) {
  DeHealthConfig config;
  config.top_k = 10;
  config.num_threads = kThreads;
  config.refined.learner = LearnerKind::kNearestCentroid;
  config.similarity.idf_weight_attributes = idf;
  config.use_index = index;
  return config;
}

int PrepareAttack(const Options& options) {
  StatusOr<GeneratedForum> forum =
      GenerateForum(WebMdLikeConfig(ForumUsers(options), kForumSeed));
  if (!forum.ok()) {
    std::fprintf(stderr, "generate: %s\n", forum.status().ToString().c_str());
    return 1;
  }
  StatusOr<DaScenario> scenario =
      MakeClosedWorldScenario(forum->dataset, 0.5, options.seed);
  if (!scenario.ok()) {
    std::fprintf(stderr, "split: %s\n", scenario.status().ToString().c_str());
    return 1;
  }
  Status saved = SaveForumDataset(scenario->anonymized,
                                  options.dir + "/anon.jsonl");
  if (saved.ok())
    saved = SaveForumDataset(scenario->auxiliary, options.dir + "/aux.jsonl");
  std::vector<long long> truth(scenario->truth.begin(), scenario->truth.end());
  if (!saved.ok() || !WriteIntRows(options.dir + "/truth.txt", {truth})) {
    std::fprintf(stderr, "cannot write the forums to %s\n",
                 options.dir.c_str());
    return 1;
  }
  return 0;
}

int RunAttack(const Options& options) {
  Report report;
  std::vector<std::vector<long long>> rows;
  if (!ReadIntRows(options.dir + "/truth.txt", &rows) || rows.size() != 1) {
    std::fprintf(stderr, "cannot read %s/truth.txt\n", options.dir.c_str());
    return 1;
  }
  const std::vector<int> truth(rows[0].begin(), rows[0].end());
  const DeHealthConfig config = AttackConfig(IsIdf(options), false);

  // Untraced repeats fill the whole run, or its first half in trace mode;
  // the second half then repeats under the tracer, so the traced run
  // measures its own overhead.
  std::vector<Repeat> untraced, traced;
  Evaluation evaluation;
  uint64_t failures = 0;
  const auto run_phase = [&](std::vector<Repeat>* out, double seconds) {
    const auto start = Clock::now();
    double last_ms = 0.0;
    while (out->size() < static_cast<size_t>(kMinRepeats) ||
           (MsSince(start) + last_ms <= 1000.0 * seconds &&
            out->size() < static_cast<size_t>(kMaxRepeats))) {
      Repeat repeat;
      ResetPeakRss();  // each repeat's peak is its own
      Status status = RunOnce(options, config, truth, &repeat, &evaluation);
      repeat.peak_mb = ProcStatusMb("VmHWM");
      report.Attempted(1);
      if (!status.ok()) {
        ++failures;
        report.Failed(1);
        report.Check("attack_ok", false, status.ToString());
        return;
      }
      last_ms = repeat.attack_ms;
      for (double ms : repeat.load_ms) last_ms += ms;
      out->push_back(repeat);
    }
  };
  if (options.trace) {
    run_phase(&untraced, options.seconds / 2);
    Status started = obs::Tracer::Global().Start(options.dir + "/trace.jsonl");
    if (!started.ok()) {
      std::fprintf(stderr, "trace: %s\n", started.ToString().c_str());
      return 1;
    }
    run_phase(&traced, options.seconds / 2);
    Status stopped = obs::Tracer::Global().Stop();
    if (!stopped.ok()) {
      std::fprintf(stderr, "trace: %s\n", stopped.ToString().c_str());
      return 1;
    }
  } else {
    run_phase(&untraced, options.seconds);
  }

  std::vector<Repeat> all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());
  if (options.corrupt && !all.empty())
    all.back().predictions_checksum ^= 1;  // self-test: the gate must trip
  if (failures == 0 && !all.empty()) {
    bool identical = true;
    for (const Repeat& r : all)
      identical = identical &&
                  r.candidates_checksum == all[0].candidates_checksum &&
                  r.predictions_checksum == all[0].predictions_checksum;
    report.Check("repeats_identical", identical,
                 std::to_string(all.size()) +
                     " repeats, candidate and prediction checksums");
    report.Note("candidates_checksum",
                std::to_string(all[0].candidates_checksum));
    report.Note("predictions_checksum",
                std::to_string(all[0].predictions_checksum));
  }

  std::vector<double> attack_ms;
  for (const Repeat& r : untraced) attack_ms.push_back(r.attack_ms);
  const double attack_median_ms = Median(attack_ms);
  std::vector<double> load_ms;
  for (const Repeat& r : untraced)
    load_ms.insert(load_ms.end(), r.load_ms.begin(), r.load_ms.end());
  report.Value("setup_s", Median(load_ms) / 1000.0, "s");
  report.Value("attack_s", attack_median_ms / 1000.0, "s");
  report.Value("latency_p50_ms", attack_median_ms, "ms");
  report.Value("latency_p99_ms", Quantile(attack_ms, 1.0), "ms");
  report.Value("throughput_per_s",
               attack_median_ms > 0.0
                   ? 1000.0 * evaluation.anonymized / attack_median_ms
                   : 0.0,
               "1/s");
  report.Value("repeats", static_cast<double>(untraced.size()), "count");
  report.Value("top_k_success", evaluation.top_k_success, "ratio");
  report.Value("accuracy", evaluation.accuracy, "ratio");
  report.Value("anonymized_users", evaluation.anonymized, "count");
  report.Value("auxiliary_users", evaluation.auxiliary, "count");
  report.Value("uda.posts", static_cast<double>(evaluation.posts), "count");
  report.Value("score.pairs",
               static_cast<double>(evaluation.anonymized) *
                   evaluation.auxiliary,
               "count");
  report.Value("refined.users", evaluation.anonymized, "count");
  report.Value("uda.rss_mb", MedianOf(all, &Repeat::rss_uda_mb), "MB");
  report.Value("score.rss_mb", MedianOf(all, &Repeat::rss_score_mb), "MB");
  if (options.trace) {
    std::vector<double> traced_ms;
    for (const Repeat& r : traced) traced_ms.push_back(r.attack_ms);
    report.Value("traced_attack_ms", Median(traced_ms), "ms");
    report.Value("untraced_attack_ms", attack_median_ms, "ms");
  }
  report.Value("peak_rss_mb", MedianOf(untraced, &Repeat::peak_mb), "MB");
  report.Emit();
  return 0;
}

}  // namespace perfbench
