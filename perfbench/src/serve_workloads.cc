// serve-read and serve-ingest: a real QueryServer on loopback, driven by
// the open-loop generator (loadgen.h) from this process.
//
// serve-read: HealthBoards-like forum, index-backed QueryEngine. Set-up
// (load + UDA graphs + engine build until the server accepts) runs
// kSetupRepeats times. Then kLatencyPhases open-loop phases at one fixed
// rate (80% Refine, 20% TopK k = 20) give the Refine/TopK percentiles, a
// closed-loop saturation phase gives the gated latency and throughput, and
// a binary search over a fixed rate ladder finds the highest rate whose
// p99 meets kP99LimitMs with no failure and no backlog (max_qps). Every
// answer is compared with the one-shot RunDeHealthAttack answer the
// prepare step wrote.
//
// serve-ingest: WebMD-like forum behind ingest::EpochHandler booted on the
// first half of the auxiliary posts. One admin connection loads and seals
// the pre-cut segments on a fixed cadence (the gated freshness) while
// Refine arrives open-loop at kIngestRate. After the last seal the epoch
// fingerprint must equal IngestState::FromDataset(full log) and every
// user's answer must equal the from-scratch engine's.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "index/pipeline.h"
#include "ingest/epoch.h"
#include "ingest/segment.h"
#include "ingest/state.h"
#include "io/forum_io.h"
#include "loadgen.h"
#include "obs/metrics.h"
#include "obs/standard_metrics.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

using namespace dehealth;

namespace {

constexpr uint64_t kReadForumSeed = 2;
constexpr uint64_t kIngestForumSeed = 7;
constexpr uint64_t kServeSplitSeed = 3;
int ReadForumUsers(const Options& o) { return o.tiny ? 80 : 800; }
int IngestForumUsers(const Options& o) { return o.tiny ? 120 : 3000; }

constexpr int kSetupRepeats = 3;
constexpr int kLatencyPhases = 3;
/// The latency phases take about this share of the run's seconds; each
/// phase is a whole number of passes over the users (WholePermutations).
constexpr double kLatencyShare = 0.5;
constexpr double kLatencyRate = 200.0;  // requests/s
/// Size of the closed-loop saturation phase, per second of the run, before
/// rounding to whole passes over the users.
constexpr double kSaturationRequestsPerSecond = 200.0;
constexpr double kTopKShare = 0.2;
/// The p99 a ladder rung must meet.
constexpr double kP99LimitMs = 200.0;
/// Generator lateness above which a phase is invalid (not averaged in).
/// At 200 requests/s the generator mostly sleeps, and waking a sleeping
/// thread on a busy 4-vCPU VM takes a few ms at p99; a generator late by
/// more than this is no longer keeping its schedule.
constexpr double kLateBoundMs = 20.0;
/// The max_qps ladder: rung i offers kLatencyRate * kLadderStep^(i -
/// kLatencyRung) requests/s, so rung kLatencyRung is the latency phases'
/// rate.
constexpr double kLadderStep = 1.1;
constexpr int kLadderRungs = 30;
constexpr int kLatencyRung = 4;
constexpr double kRungSeconds = 1.0;
constexpr int kRungMinRequests = 600;

double LadderRate(int rung) {
  return kLatencyRate * std::pow(kLadderStep, rung - kLatencyRung);
}
/// Users the traced run sends straight to the engine (no server) to time
/// QueryEngine::Refine and the TopK row scan alone.
constexpr int kProbeUsers = 200;

constexpr int kSegments = 5;
/// Refine/s while segments land, before rounding to whole passes over the
/// users.
constexpr double kIngestRate = 200.0;

std::string SegmentPath(const Options& o, int i) {
  return o.dir + "/segment-" + std::to_string(i) + ".dhsg";
}

/// The handler and the server borrowing it. The server must stop before
/// the handler goes, so reuse goes through Reset() (a defaulted move
/// assignment would destroy the handler first).
struct Served {
  std::unique_ptr<QueryHandler> handler;
  std::unique_ptr<QueryServer> server;

  void Reset() {
    server.reset();
    handler.reset();
  }

  size_t uda_posts = 0;      // posts the setup's uda span extracted
  double uda_rss_mb = 0.0;   // VmRSS right after the uda span
  double score_pairs = 0.0;  // anonymized x auxiliary users scored
};

/// Loads the anonymized and auxiliary forums of the run directory.
Status LoadForums(const Options& options, ForumDataset* anon,
                  ForumDataset* aux) {
  obs::Span span("bench", "io.load");
  StatusOr<ForumDataset> anon_data =
      LoadForumDataset(options.dir + "/anon.jsonl");
  if (!anon_data.ok()) return anon_data.status();
  StatusOr<ForumDataset> aux_data =
      LoadForumDataset(options.dir + "/aux.jsonl");
  if (!aux_data.ok()) return aux_data.status();
  *anon = std::move(anon_data).value();
  *aux = std::move(aux_data).value();
  return Status::OK();
}

Status StartServer(Served* served) {
  ServerConfig config;
  config.max_queue = 256;
  config.registry = &obs::Registry::Global();
  served->server = std::make_unique<QueryServer>(*served->handler, config);
  return served->server->Start();
}

/// Deltas of one registry histogram over a window of the run.
class HistogramWindow {
 public:
  explicit HistogramWindow(const obs::MetricDef& def)
      : histogram_(obs::Registry::Global().GetHistogram(def)),
        count_(histogram_->Count()), sum_(histogram_->Sum()) {
    for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i)
      before_[static_cast<size_t>(i)] = histogram_->raw().BucketCount(i);
  }
  double MeanMs() const {
    const uint64_t count = histogram_->Count() - count_;
    return count ? static_cast<double>(histogram_->Sum() - sum_) / 1000.0 /
                       static_cast<double>(count)
                 : 0.0;
  }
  /// Upper bound (ms) of the bucket holding the q-quantile of the window.
  double QuantileMs(double q) const {
    uint64_t total = 0;
    std::array<uint64_t, LatencyHistogram::kNumBuckets> delta{};
    for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
      delta[static_cast<size_t>(i)] = histogram_->raw().BucketCount(i) -
                                      before_[static_cast<size_t>(i)];
      total += delta[static_cast<size_t>(i)];
    }
    if (total == 0) return 0.0;
    const auto rank = static_cast<uint64_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(total))));
    uint64_t seen = 0;
    for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
      seen += delta[static_cast<size_t>(i)];
      if (seen >= rank) return LatencyHistogram::BucketUpperBound(i) / 1000.0;
    }
    return 0.0;
  }

 private:
  obs::Histogram* histogram_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  std::array<uint64_t, LatencyHistogram::kNumBuckets> before_{};
};

/// serve.* per-layer values over one window of traffic.
class ServeWindow {
 public:
  explicit ServeWindow(const QueryServer& server)
      : server_(server), stats_(server.Stats()),
        queue_wait_(obs::kServeQueueWait), engine_(obs::kServeEngineTime),
        latency_(obs::kServeLatency) {}

  /// `client_rtt_mean_ms`: the generator's mean send-to-answer time.
  void Report(perfbench::Report* report, double client_rtt_mean_ms) const {
    const ServerStatsSnapshot now = server_.Stats();
    const uint64_t batches = now.batches_total - stats_.batches_total;
    report->Value("serve.queue_wait_p50_ms", queue_wait_.QuantileMs(0.50),
                  "ms");
    report->Value("serve.queue_wait_p99_ms", queue_wait_.QuantileMs(0.99),
                  "ms");
    report->Value("serve.batch_mean",
                  batches ? static_cast<double>(now.queries_total -
                                                stats_.queries_total) /
                                static_cast<double>(batches)
                          : 0.0,
                  "count");
    report->Value("serve.engine_p99_ms", engine_.QuantileMs(0.99), "ms");
    report->Value("serve.wire_mean_ms",
                  std::max(0.0, client_rtt_mean_ms - latency_.MeanMs()), "ms");
    report->Value("serve.overloaded",
                  static_cast<double>(now.overload_rejections -
                                      stats_.overload_rejections),
                  "count");
    report->Value("serve.timeouts",
                  static_cast<double>(now.deadline_expirations -
                                      stats_.deadline_expirations),
                  "count");
  }

 private:
  const QueryServer& server_;
  ServerStatsSnapshot stats_;
  HistogramWindow queue_wait_, engine_, latency_;
};

void ReportIndexRatios(Report* report) {
  const obs::IndexMetrics& index = obs::GetIndexMetrics();
  const double queries = static_cast<double>(index.topk_queries->Value());
  const double pruned = static_cast<double>(index.bound_pruned->Value());
  const double evals = static_cast<double>(index.exact_evals->Value());
  report->Value("index.dense_scan_ratio",
                queries > 0 ? index.dense_scans->Value() / queries : 0.0,
                "ratio");
  report->Value("index.prune_ratio",
                pruned + evals > 0 ? pruned / (pruned + evals) : 0.0, "ratio");
}

/// Counts a phase into the report: every request is attempted, every
/// failure is failed.
void Account(Report* report, const PhaseStats& stats) {
  report->Attempted(stats.sent);
  report->Failed(stats.failed());
}

bool StartTrace(const Options& options) {
  if (!options.trace) return true;
  Status started = obs::Tracer::Global().Start(options.dir + "/trace.jsonl");
  if (!started.ok())
    std::fprintf(stderr, "trace: %s\n", started.ToString().c_str());
  return started.ok();
}

bool StopTrace(const Options& options) {
  if (!options.trace || !obs::Tracer::Global().recording()) return true;
  Status stopped = obs::Tracer::Global().Stop();
  if (!stopped.ok())
    std::fprintf(stderr, "trace: %s\n", stopped.ToString().c_str());
  return stopped.ok();
}

int Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what.c_str(), status.ToString().c_str());
  return 1;
}

/// Generates and splits the served forum into the run directory. A served
/// dataset is what it is, so forum and split are fixed; the seed draws
/// only the traffic (schedules, users, query kinds).
StatusOr<DaScenario> SplitForum(const ForumConfig& forum_config,
                                const std::string& dir) {
  StatusOr<GeneratedForum> forum = GenerateForum(forum_config);
  if (!forum.ok()) return forum.status();
  StatusOr<DaScenario> scenario =
      MakeClosedWorldScenario(forum->dataset, 0.5, kServeSplitSeed);
  if (!scenario.ok()) return scenario.status();
  Status saved = SaveForumDataset(scenario->anonymized, dir + "/anon.jsonl");
  if (saved.ok())
    saved = SaveForumDataset(scenario->auxiliary, dir + "/aux.jsonl");
  if (!saved.ok()) return saved;
  return scenario;
}

ForumDataset Prefix(const ForumDataset& full, size_t posts) {
  ForumDataset base;
  base.num_users = full.num_users;
  base.num_threads = full.num_threads;
  base.posts.assign(full.posts.begin(),
                    full.posts.begin() + static_cast<long>(posts));
  return base;
}

// ---------------------------------------------------------------- serve-read

/// Expected answers, per anonymized user: prediction, rejected, top-20.
struct ReadExpected {
  std::vector<int> prediction;
  std::vector<bool> rejected;
  std::vector<std::vector<int>> top20;
};

StatusOr<Served> SetUpRead(const Options& options) {
  obs::Span span("bench", "setup");
  ForumDataset anon_data, aux_data;
  DEHEALTH_RETURN_IF_ERROR(LoadForums(options, &anon_data, &aux_data));
  UdaGraph anon, aux;
  {
    obs::Span uda("bench", "uda");
    anon = BuildUdaGraph(anon_data);
    aux = BuildUdaGraph(aux_data);
  }
  Served served;
  served.uda_rss_mb = ProcStatusMb("VmRSS");
  served.uda_posts = anon_data.posts.size() + aux_data.posts.size();
  served.score_pairs =
      static_cast<double>(anon.num_users()) * aux.num_users();
  {
    obs::Span score("bench", "score");
    StatusOr<std::unique_ptr<QueryEngine>> engine = QueryEngine::Create(
        std::move(anon), std::move(aux), AttackConfig(false, true));
    if (!engine.ok()) return engine.status();
    served.handler = std::move(engine).value();
  }
  DEHEALTH_RETURN_IF_ERROR(StartServer(&served));
  return served;
}

}  // namespace

int PrepareServeRead(const Options& options) {
  StatusOr<DaScenario> scenario = SplitForum(
      HealthBoardsLikeConfig(ReadForumUsers(options), kReadForumSeed),
      options.dir);
  if (!scenario.ok()) return Fail("prepare", scenario.status());
  // The reference reads the files back, exactly as the server will.
  StatusOr<ForumDataset> anon_data =
      LoadForumDataset(options.dir + "/anon.jsonl");
  StatusOr<ForumDataset> aux_data =
      LoadForumDataset(options.dir + "/aux.jsonl");
  if (!anon_data.ok()) return Fail("load", anon_data.status());
  if (!aux_data.ok()) return Fail("load", aux_data.status());
  const UdaGraph anon = BuildUdaGraph(*anon_data);
  const UdaGraph aux = BuildUdaGraph(*aux_data);
  // One-shot dense answers: the refined DA of RunDeHealthAttack at K = 10,
  // and for the TopK probes the one-shot phase 1 (score source + candidate
  // selection) at K = kProbeK.
  StatusOr<DeHealthResult> one_shot =
      RunDeHealthAttack(anon, aux, AttackConfig(false, false));
  if (!one_shot.ok()) return Fail("one-shot attack", one_shot.status());
  DeHealthConfig deep = AttackConfig(false, false);
  deep.top_k = kProbeK;
  StatusOr<std::unique_ptr<AttackScoreSource>> scores =
      BuildAttackScoreSource(anon, aux, deep);
  if (!scores.ok()) return Fail("one-shot scores", scores.status());
  StatusOr<DeHealthCandidates> one_shot_deep =
      DeHealth(deep).SelectCandidates(*(*scores)->source);
  if (!one_shot_deep.ok())
    return Fail("one-shot selection", one_shot_deep.status());
  std::vector<std::vector<long long>> rows;
  for (int u = 0; u < anon.num_users(); ++u) {
    const auto i = static_cast<size_t>(u);
    std::vector<long long> row = {one_shot->refined.predictions[i],
                                  one_shot->refined.rejected[i] ? 1 : 0};
    for (int v : one_shot_deep->candidates[i]) row.push_back(v);
    rows.push_back(std::move(row));
  }
  if (!WriteIntRows(options.dir + "/expected.txt", rows)) {
    std::fprintf(stderr, "cannot write expected answers\n");
    return 1;
  }
  return 0;
}

int RunServeRead(const Options& options) {
  Report report;
  std::vector<std::vector<long long>> rows;
  if (!ReadIntRows(options.dir + "/expected.txt", &rows) || rows.empty()) {
    std::fprintf(stderr, "cannot read expected answers\n");
    return 1;
  }
  ReadExpected expected;
  for (const auto& row : rows) {
    if (row.size() < 2) {
      std::fprintf(stderr, "malformed expected answers\n");
      return 1;
    }
    expected.prediction.push_back(static_cast<int>(row[0]));
    expected.rejected.push_back(row[1] != 0);
    expected.top20.emplace_back(row.begin() + 2, row.end());
  }
  if (options.corrupt) expected.prediction[0] ^= 1;  // the gate must trip
  const int users = static_cast<int>(expected.prediction.size());
  Expectations expect;
  expect.refine = [&](int u, const RefinedAnswer& a) {
    const auto i = static_cast<size_t>(u);
    return a.predictions.size() == 1 && a.rejected.size() == 1 &&
           a.predictions[0] == expected.prediction[i] &&
           a.rejected[0] == expected.rejected[i];
  };
  expect.topk = [&](int u, const TopKAnswer& a) {
    return a.candidates.size() == 1 &&
           a.candidates[0] == expected.top20[static_cast<size_t>(u)];
  };

  if (!StartTrace(options)) return 1;
  // --- set-up, repeated; the last server stays up --------------------------
  Served served;
  std::vector<double> setup_ms;
  for (int r = 0; r < kSetupRepeats; ++r) {
    served.Reset();  // the previous server and engine go first
    ResetPeakRss();
    const auto start = Clock::now();
    StatusOr<Served> up = SetUpRead(options);
    if (!up.ok()) return Fail("setup", up.status());
    setup_ms.push_back(MsSince(start));
    served = std::move(up).value();
  }
  const int port = served.server->port();
  report.Value("uda.posts", static_cast<double>(served.uda_posts), "count");
  report.Value("uda.rss_mb", served.uda_rss_mb, "MB");
  report.Value("score.pairs", served.score_pairs, "count");
  report.Value("score.rss_mb", ProcStatusMb("VmRSS"), "MB");

  // --- engine probes (traced run only): refined and topk layers alone ------
  if (options.trace) {
    const QueryHandler& engine = *served.handler;
    Rng rng(MixSeed(options.seed, 99));
    std::vector<int> probe;
    for (int i = 0; i < kProbeUsers; ++i)
      probe.push_back(static_cast<int>(
          rng.NextBounded(static_cast<uint64_t>(users))));
    bool probes_ok = true;
    {
      obs::Span span("bench", "refined");
      for (int u : probe) probes_ok = probes_ok && engine.Refine({u}).ok();
    }
    {
      obs::Span span("bench", "topk");
      for (int u : probe)
        probes_ok = probes_ok && engine.TopK({u}, kProbeK).ok();
    }
    report.Check("engine_probes", probes_ok, "direct engine calls");
    report.Value("probe.users", kProbeUsers, "count");
  }

  // --- latency phases at one fixed rate ------------------------------------
  // p50s are medians over the phases; p99s pool the phases' samples.
  const int connections = kThreads;
  std::vector<double> mix_p50, refine_p50, late_p99;
  std::vector<double> mix_all, refine_all, topk_all;
  uint64_t wrong = 0, phase_failures = 0, sent = 0, completed = 0;
  bool phases_drained = true;
  double rtt_sum_ms = 0.0;
  ServeWindow window(*served.server);
  const int phase_requests = WholePermutations(
      kLatencyShare * options.seconds * kLatencyRate / kLatencyPhases, users);
  const double phase_seconds = phase_requests / kLatencyRate;
  const auto run_latency_phases = [&](uint64_t stream) {
    for (int p = 0; p < kLatencyPhases; ++p) {
      const std::vector<Arrival> schedule = PoissonSchedule(
          MixSeed(options.seed, stream + static_cast<uint64_t>(p)),
          phase_requests, phase_seconds, users, kTopKShare);
      const std::vector<Sample> samples =
          RunOpenLoop(port, schedule, connections, expect, PhaseZero());
      const auto all = [](size_t) { return true; };
      const PhaseStats mix = Summarize(schedule, samples, all, kP99LimitMs);
      const PhaseStats refine = Summarize(
          schedule, samples, [&](size_t i) { return !schedule[i].topk; },
          kP99LimitMs);
      Account(&report, mix);
      wrong += mix.wrong;
      phase_failures += mix.failed();
      sent += mix.sent;
      completed += mix.ok;
      phases_drained = phases_drained && mix.drained;
      rtt_sum_ms += mix.rtt_mean_ms * static_cast<double>(mix.ok);
      late_p99.push_back(mix.late_p99_ms);
      if (mix.late_p99_ms > kLateBoundMs) {
        std::fprintf(stderr,
                     "latency phase %d invalid: generator late p99 %.2f ms\n",
                     p, mix.late_p99_ms);
        continue;
      }
      mix_p50.push_back(mix.p50_ms);
      refine_p50.push_back(refine.p50_ms);
      for (size_t i = 0; i < samples.size(); ++i) {
        if (samples[i].outcome != Outcome::kOk) continue;
        mix_all.push_back(samples[i].latency_ms);
        (schedule[i].topk ? topk_all : refine_all)
            .push_back(samples[i].latency_ms);
      }
    }
  };
  run_latency_phases(100);
  window.Report(&report, completed ? rtt_sum_ms / completed : 0.0);
  const double mix_p99 = Quantile(mix_all, 0.99);
  report.Check("latency_phases_valid", mix_p50.size() == kLatencyPhases,
               std::to_string(mix_p50.size()) + " of " +
                   std::to_string(kLatencyPhases) +
                   " phases with generator late p99 <= " +
                   std::to_string(kLateBoundMs) + " ms");
  report.Check("no_failed_requests_at_latency_rate", phase_failures == 0,
               std::to_string(phase_failures) + " failed");
  if (options.trace) {
    // Tracing overhead: the same phases again with the tracer off.
    const double traced = Median(refine_p50);
    if (!StopTrace(options)) return 1;
    refine_p50.clear();
    run_latency_phases(200);
    report.Value("traced_refine_p50_ms", traced, "ms");
    report.Value("untraced_refine_p50_ms", Median(refine_p50), "ms");
  }

  // --- saturation: the same mix, closed loop over every connection --------
  // Every request is due at once, so each connection sends its next one as
  // soon as the last is answered; requests/s over the phase is the
  // capacity the ladder cannot exceed. The server never idles here, so
  // its send-to-answer times are the steadiest latencies of the run (the
  // open-loop ones above include waking idle threads on a VM whose host
  // takes CPU time away in bursts), and they are the gated percentiles.
  double saturation = 0.0;
  std::vector<double> saturation_rtt;
  if (!options.trace) {
    const std::vector<Arrival> schedule = ClosedLoopSchedule(
        MixSeed(options.seed, 250),
        WholePermutations(kSaturationRequestsPerSecond * options.seconds,
                          users),
        users, kTopKShare);
    const Clock::time_point zero = PhaseZero();
    const std::vector<Sample> samples =
        RunOpenLoop(port, schedule, connections, expect, zero);
    const PhaseStats stats = Summarize(
        schedule, samples, [](size_t) { return true; }, kP99LimitMs);
    Account(&report, stats);
    wrong += stats.wrong;
    saturation = stats.achieved_per_s;
    for (const Sample& sample : samples)
      if (sample.outcome == Outcome::kOk)
        saturation_rtt.push_back(sample.rtt_ms);
    report.Check("no_failed_requests_at_saturation", stats.failed() == 0,
                 std::to_string(stats.failed()) + " failed");
  }

  // --- max_qps: binary search over the fixed ladder ------------------------
  // Bracket: the latency phases ran at rung kLatencyRung (it passes when
  // they met the rung criteria), and no rung above the saturation rate can
  // pass.
  double max_qps = 0.0;
  if (!options.trace) {
    const bool latency_rung_passes = phase_failures == 0 && phases_drained &&
                                     mix_p50.size() == kLatencyPhases &&
                                     mix_p99 <= kP99LimitMs;
    int lo = latency_rung_passes ? kLatencyRung : -1;  // passes (or none)
    int hi = lo + 1;                                   // fails
    while (hi < kLadderRungs && LadderRate(hi) <= saturation) ++hi;
    if (latency_rung_passes)
      max_qps =
          static_cast<double>(completed) / (kLatencyPhases * phase_seconds);
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      const double rate = LadderRate(mid);
      const int requests = static_cast<int>(
          std::max<double>(kRungMinRequests, rate * kRungSeconds));
      const std::vector<Arrival> schedule = PoissonSchedule(
          MixSeed(options.seed, 300 + static_cast<uint64_t>(mid)), requests,
          requests / rate, users, kTopKShare);
      const std::vector<Sample> samples =
          RunOpenLoop(port, schedule, connections, expect, PhaseZero());
      const PhaseStats stats = Summarize(
          schedule, samples, [](size_t) { return true; }, kP99LimitMs);
      Account(&report, stats);
      wrong += stats.wrong;
      const bool valid = stats.late_p99_ms <= kLateBoundMs;
      const bool pass = valid && stats.failed() == 0 &&
                        stats.p99_ms <= kP99LimitMs && stats.drained;
      std::fprintf(stderr,
                   "ladder %7.1f/s: p99 %.2f ms, failed %llu, drained %d, "
                   "late p99 %.2f ms -> %s\n",
                   rate, stats.p99_ms,
                   static_cast<unsigned long long>(stats.failed()),
                   stats.drained ? 1 : 0, stats.late_p99_ms,
                   pass ? "pass" : "fail");
      if (pass) {
        lo = mid;
        max_qps = stats.achieved_per_s;
      } else {
        hi = mid;
      }
    }
    report.Check("ladder_has_passing_rung", max_qps > 0.0,
                 "p99 limit " + std::to_string(kP99LimitMs) + " ms");
  }
  report.Check("answers_match_one_shot", wrong == 0,
               std::to_string(wrong) +
                   " Refine/TopK answers differ from the one-shot "
                   "RunDeHealthAttack answers");
  served.Reset();
  if (!StopTrace(options)) return 1;

  report.Value("setup_s", Median(setup_ms) / 1000.0, "s");
  report.Value("latency_p50_ms", Quantile(saturation_rtt, 0.50), "ms");
  report.Value("latency_p99_ms", Quantile(saturation_rtt, 0.99), "ms");
  report.Value("saturation_samples", static_cast<double>(saturation_rtt.size()),
               "count");
  report.Value("throughput_per_s", saturation, "1/s");
  report.Value("max_qps", max_qps, "1/s");
  report.Value("refine_p50_ms", Median(refine_p50), "ms");
  report.Value("refine_p99_ms", Quantile(refine_all, 0.99), "ms");
  report.Value("refine_samples", static_cast<double>(refine_all.size()),
               "count");
  report.Value("topk_p50_ms", Quantile(topk_all, 0.50), "ms");
  report.Value("topk_p99_ms", Quantile(topk_all, 0.99), "ms");
  report.Value("topk_samples", static_cast<double>(topk_all.size()), "count");
  report.Value("loadgen.late_p99_ms", Quantile(late_p99, 1.0), "ms");
  report.Value("loadgen.sent", static_cast<double>(sent), "count");
  report.Value("loadgen.completed", static_cast<double>(completed), "count");
  ReportIndexRatios(&report);
  report.Value("peak_rss_mb", ProcStatusMb("VmHWM"), "MB");
  report.Emit();
  return 0;
}

// -------------------------------------------------------------- serve-ingest

namespace {

StatusOr<Served> SetUpIngest(const Options& options) {
  obs::Span span("bench", "setup");
  ForumDataset anon_data, aux_data;
  DEHEALTH_RETURN_IF_ERROR(LoadForums(options, &anon_data, &aux_data));
  UdaGraph anon;
  {
    obs::Span uda("bench", "uda");
    anon = BuildUdaGraph(anon_data);
  }
  Served served;
  served.uda_rss_mb = ProcStatusMb("VmRSS");
  served.uda_posts = anon_data.posts.size();
  served.score_pairs =
      static_cast<double>(anon.num_users()) * aux_data.num_users;
  {
    // The boot epoch: base extraction plus the engine build.
    obs::Span score("bench", "score");
    StatusOr<std::unique_ptr<ingest::EpochHandler>> handler =
        ingest::EpochHandler::Create(
            std::move(anon), Prefix(aux_data, aux_data.posts.size() / 2),
            AttackConfig(false, true));
    if (!handler.ok()) return handler.status();
    served.handler = std::move(handler).value();
  }
  DEHEALTH_RETURN_IF_ERROR(StartServer(&served));
  return served;
}

}  // namespace

int PrepareServeIngest(const Options& options) {
  StatusOr<DaScenario> scenario = SplitForum(
      WebMdLikeConfig(IngestForumUsers(options), kIngestForumSeed),
      options.dir);
  if (!scenario.ok()) return Fail("prepare", scenario.status());
  StatusOr<ForumDataset> anon_data =
      LoadForumDataset(options.dir + "/anon.jsonl");
  StatusOr<ForumDataset> full = LoadForumDataset(options.dir + "/aux.jsonl");
  if (!anon_data.ok()) return Fail("load", anon_data.status());
  if (!full.ok()) return Fail("load", full.status());

  // Producer: cut the tail (second half of the auxiliary posts) into
  // kSegments verified segment files.
  const size_t base_posts = full->posts.size() / 2;
  ingest::IngestState producer =
      ingest::IngestState::FromDataset(Prefix(*full, base_posts));
  double cut_ms = 0.0;
  for (int i = 0; i < kSegments; ++i) {
    const size_t tail = full->posts.size() - base_posts;
    const size_t from = base_posts + tail * static_cast<size_t>(i) / kSegments;
    const size_t to =
        base_posts + tail * static_cast<size_t>(i + 1) / kSegments;
    const std::vector<Post> posts(full->posts.begin() + static_cast<long>(from),
                                  full->posts.begin() + static_cast<long>(to));
    const auto start = Clock::now();
    StatusOr<ingest::DeltaSegment> segment =
        ingest::CutSegment(&producer, posts);
    if (!segment.ok()) return Fail("cut", segment.status());
    Status written =
        ingest::WriteSegmentVerified(*segment, SegmentPath(options, i));
    if (!written.ok()) return Fail("write segment", written);
    cut_ms += MsSince(start);
  }

  // From-scratch references over the full log.
  const ingest::IngestState reference = ingest::IngestState::FromDataset(*full);
  StatusOr<std::unique_ptr<QueryEngine>> engine = QueryEngine::Create(
      BuildUdaGraph(*anon_data), reference.uda(), AttackConfig(false, true));
  if (!engine.ok()) return Fail("reference engine", engine.status());
  std::vector<int> all((*engine)->num_anonymized());
  for (size_t u = 0; u < all.size(); ++u) all[u] = static_cast<int>(u);
  StatusOr<RefinedAnswer> answers = (*engine)->Refine(all);
  if (!answers.ok()) return Fail("reference answers", answers.status());
  const uint64_t fingerprint = reference.fingerprint();
  std::vector<std::vector<long long>> rows = {
      {static_cast<long long>(fingerprint >> 32),
       static_cast<long long>(fingerprint & 0xffffffffULL)},
      {static_cast<long long>(1000.0 * cut_ms / kSegments),
       static_cast<long long>(full->posts.size() - base_posts)}};
  for (size_t u = 0; u < all.size(); ++u)
    rows.push_back({answers->predictions[u], answers->rejected[u] ? 1 : 0});
  if (!WriteIntRows(options.dir + "/expected.txt", rows)) {
    std::fprintf(stderr, "cannot write expected answers\n");
    return 1;
  }
  return 0;
}

int RunServeIngest(const Options& options) {
  Report report;
  std::vector<std::vector<long long>> rows;
  if (!ReadIntRows(options.dir + "/expected.txt", &rows) || rows.size() < 3 ||
      rows[0].size() != 2 || rows[1].size() != 2) {
    std::fprintf(stderr, "cannot read expected answers\n");
    return 1;
  }
  uint64_t expected_fingerprint =
      (static_cast<uint64_t>(rows[0][0]) << 32) |
      static_cast<uint64_t>(rows[0][1]);
  if (options.corrupt) expected_fingerprint ^= 1;  // the gate must trip
  const double cut_us_per_segment = static_cast<double>(rows[1][0]);
  const double tail_posts = static_cast<double>(rows[1][1]);
  std::vector<int> final_prediction;
  std::vector<bool> final_rejected;
  for (size_t r = 2; r < rows.size(); ++r) {
    if (rows[r].size() != 2) {
      std::fprintf(stderr, "malformed expected answers\n");
      return 1;
    }
    final_prediction.push_back(static_cast<int>(rows[r][0]));
    final_rejected.push_back(rows[r][1] != 0);
  }
  const int users = static_cast<int>(final_prediction.size());

  if (!StartTrace(options)) return 1;
  Served served;
  std::vector<double> setup_ms;
  for (int r = 0; r < kSetupRepeats; ++r) {
    served.Reset();
    ResetPeakRss();
    const auto start = Clock::now();
    StatusOr<Served> up = SetUpIngest(options);
    if (!up.ok()) return Fail("setup", up.status());
    setup_ms.push_back(MsSince(start));
    served = std::move(up).value();
  }
  const int port = served.server->port();
  report.Value("uda.posts", static_cast<double>(served.uda_posts), "count");
  report.Value("uda.rss_mb", served.uda_rss_mb, "MB");
  report.Value("score.pairs", served.score_pairs, "count");
  report.Value("score.rss_mb", ProcStatusMb("VmRSS"), "MB");

  // --- reads while one admin connection loads and seals segments ----------
  // Mid-run answers come from whichever epoch is current, so they are held
  // to shape only; the full check runs after the last seal.
  Expectations expect;
  expect.refine = [&](int, const RefinedAnswer& a) {
    return a.predictions.size() == 1 && a.rejected.size() == 1;
  };
  expect.topk = [](int, const TopKAnswer&) { return false; };
  const std::vector<Arrival> schedule = PoissonSchedule(
      MixSeed(options.seed, 400),
      WholePermutations(kIngestRate * options.seconds, users), options.seconds,
      users, 0.0);
  const double cadence_ms = 1000.0 * options.seconds / kSegments;
  std::vector<double> load_ms(kSegments, 0.0), seal_ms(kSegments, 0.0);
  // [begin, end) of each admin operation, ms from the read phase's zero.
  std::vector<std::pair<double, double>> busy;
  Status admin_status;
  ServeWindow window(*served.server);
  const Clock::time_point zero = PhaseZero();
  std::thread admin([&] {
    StatusOr<QueryClient> client = QueryClient::Connect("127.0.0.1", port);
    if (!client.ok()) {
      admin_status = client.status();
      return;
    }
    for (int i = 0; i < kSegments; ++i) {
      std::this_thread::sleep_until(
          zero + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(
                         cadence_ms * (i + 0.25))));
      const auto begin = Clock::now();
      StatusOr<ShardInfoAnswer> loaded = Status::Internal("not sent");
      {
        obs::Span span("bench", "ingest.load");
        loaded = client->LoadSegment(SegmentPath(options, i));
      }
      const auto mid = Clock::now();
      StatusOr<ShardInfoAnswer> sealed = Status::Internal("not sent");
      if (loaded.ok()) {
        obs::Span span("bench", "ingest.seal");
        sealed = client->SealEpoch();
      }
      const auto end = Clock::now();
      if (!loaded.ok() || !sealed.ok()) {
        admin_status = !loaded.ok() ? loaded.status() : sealed.status();
        return;
      }
      load_ms[static_cast<size_t>(i)] = MsBetween(begin, mid);
      seal_ms[static_cast<size_t>(i)] = MsBetween(mid, end);
      busy.emplace_back(MsBetween(zero, begin), MsBetween(zero, end));
    }
  });
  const std::vector<Sample> samples =
      RunOpenLoop(port, schedule, kThreads - 1, expect, zero);
  admin.join();
  const PhaseStats reads = Summarize(
      schedule, samples, [](size_t) { return true; }, kP99LimitMs);
  const PhaseStats swap_reads = Summarize(
      schedule, samples,
      [&](size_t i) {
        for (const auto& [begin, end] : busy)
          if (schedule[i].due_ms >= begin && schedule[i].due_ms < end)
            return true;
        return false;
      },
      kP99LimitMs);
  Account(&report, reads);
  window.Report(&report, reads.rtt_mean_ms);
  report.Check("admin_ok", admin_status.ok(),
               admin_status.ok() ? std::to_string(kSegments) +
                                       " segments loaded and sealed"
                                 : admin_status.ToString());
  report.Check("reads_ok", reads.failed() == 0,
               std::to_string(reads.failed()) + " of " +
                   std::to_string(reads.sent) + " reads failed");
  report.Check("loadgen_on_schedule", reads.late_p99_ms <= kLateBoundMs,
               "generator late p99 " + std::to_string(reads.late_p99_ms) +
                   " ms");

  // --- the final epoch against the from-scratch references ----------------
  uint64_t final_wrong = 0;
  {
    StatusOr<QueryClient> client = QueryClient::Connect("127.0.0.1", port);
    StatusOr<ShardInfoAnswer> info =
        client.ok() ? client->ShardInfo()
                    : StatusOr<ShardInfoAnswer>(client.status());
    report.Check("final_fingerprint",
                 info.ok() &&
                     info->universe_fingerprint == expected_fingerprint &&
                     info->epoch_seq == static_cast<uint64_t>(kSegments),
                 info.ok() ? "epoch " + std::to_string(info->epoch_seq) +
                                 " fingerprint vs IngestState::FromDataset"
                           : info.status().ToString());
    constexpr int kBatch = 64;
    for (int from = 0; client.ok() && from < users; from += kBatch) {
      std::vector<int> batch;
      for (int u = from; u < std::min(users, from + kBatch); ++u)
        batch.push_back(u);
      StatusOr<RefinedAnswer> answer = client->Refine(batch);
      report.Attempted(batch.size());
      for (size_t j = 0; j < batch.size(); ++j) {
        const auto u = static_cast<size_t>(batch[j]);
        if (!answer.ok() || answer->predictions.size() != batch.size() ||
            answer->predictions[j] != final_prediction[u] ||
            answer->rejected[j] != final_rejected[u])
          ++final_wrong;
      }
    }
    if (!client.ok()) final_wrong = static_cast<uint64_t>(users);
    report.Failed(final_wrong);
  }
  report.Check("post_seal_answers", final_wrong == 0,
               std::to_string(final_wrong) + " of " + std::to_string(users) +
                   " answers differ from the from-scratch engine");
  served.Reset();
  if (!StopTrace(options)) return 1;

  std::vector<double> freshness_s;
  double busy_ms = 0.0;
  for (int i = 0; i < kSegments; ++i) {
    const auto s = static_cast<size_t>(i);
    const double ms = load_ms[s] + seal_ms[s];
    freshness_s.push_back(ms / 1000.0);
    busy_ms += ms;
  }
  report.Value("setup_s", Median(setup_ms) / 1000.0, "s");
  // The gated latencies are freshness: per segment, from the file existing
  // to its posts being served. The reads' open-loop percentiles move with
  // the host's CPU steal by more than the gate allows, so they are
  // printed (refine_*) but not gated.
  report.Value("latency_p50_ms", 1000.0 * Median(freshness_s), "ms");
  report.Value("latency_p99_ms", 1000.0 * Quantile(freshness_s, 1.0), "ms");
  report.Value("throughput_per_s",
               busy_ms > 0.0 ? 1000.0 * tail_posts / busy_ms : 0.0, "1/s");
  report.Value("refine_p50_ms", reads.p50_ms, "ms");
  report.Value("refine_p99_ms", reads.p99_ms, "ms");
  report.Value("refine_samples", static_cast<double>(reads.ok), "count");
  report.Value("swap_refine_p99_ms", swap_reads.p99_ms, "ms");
  report.Value("swap_refine_samples", static_cast<double>(swap_reads.ok),
               "count");
  report.Value("freshness_s", Median(freshness_s), "s");
  report.Value("ingest.cut_ms", cut_us_per_segment / 1000.0, "ms");
  report.Value("ingest.posts_per_segment", tail_posts / kSegments, "count");
  double segment_bytes = 0.0;
  for (int i = 0; i < kSegments; ++i) {
    std::error_code error;
    const auto size =
        std::filesystem::file_size(SegmentPath(options, i), error);
    if (!error) segment_bytes += static_cast<double>(size) / kSegments;
  }
  report.Value("ingest.segment_bytes", segment_bytes, "bytes");
  report.Value("loadgen.late_p99_ms", reads.late_p99_ms, "ms");
  report.Value("loadgen.sent", static_cast<double>(reads.sent), "count");
  report.Value("loadgen.completed", static_cast<double>(reads.ok), "count");
  ReportIndexRatios(&report);
  report.Value("peak_rss_mb", ProcStatusMb("VmHWM"), "MB");
  report.Emit();
  return 0;
}

}  // namespace perfbench
