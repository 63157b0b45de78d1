#ifndef DEHEALTH_CORE_DE_HEALTH_H_
#define DEHEALTH_CORE_DE_HEALTH_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/candidate_source.h"
#include "core/engine_kind.h"
#include "core/filtering.h"
#include "core/refined_da.h"
#include "core/similarity.h"
#include "core/top_k.h"
#include "core/uda_graph.h"

namespace dehealth {

/// End-to-end configuration of the De-Health attack (Algorithm 1).
struct DeHealthConfig {
  SimilarityConfig similarity;
  int top_k = 10;  // K

  /// Which phase-1 attack engine scores anonymized-vs-auxiliary pairs
  /// (--engine). kStructural is the paper's attack and the only engine the
  /// candidate index accelerates; kBlind and kCommunity (src/engines/) are
  /// matrix-backed and obey the same determinism/thread-invariance/
  /// checkpoint contract (docs/ENGINES.md). Consumed by
  /// BuildAttackScoreSource — DeHealth::Run itself always runs the
  /// structural matrix.
  EngineKind engine = EngineKind::kStructural;
  /// Seed of the community engine's label-propagation passes (and any
  /// future stochastic engine step). Result-shaping: part of the job
  /// fingerprint for non-structural engines.
  uint64_t engine_seed = 1;
  CandidateSelection selection = CandidateSelection::kDirect;
  /// The paper marks filtering optional ("no guarantee ... to improve the
  /// DA performance. Therefore, we set the filtering process as an
  /// optional choice") — off by default, like the closed-world evaluation.
  bool enable_filtering = false;
  FilterConfig filter;
  RefinedDaConfig refined;

  /// Single threading knob for the whole pipeline (0 = hardware
  /// concurrency). Run() copies it into the similarity and refined-DA
  /// sub-configs and the Top-K selection, overriding their own
  /// `num_threads` fields; set those directly only when driving the
  /// components standalone. Every phase is bitwise-deterministic for any
  /// value (see DESIGN.md "Threading model").
  int num_threads = 0;

  /// Ignored. The structural engine always scores through the candidate
  /// index (see DESIGN.md "Candidate index"); the field stays so existing
  /// callers keep compiling, and JobConfigFingerprint never reads it.
  bool use_index = false;
  /// When non-empty, the structural engine's index is loaded from this
  /// snapshot file if it matches the auxiliary side + config (and rebuilt
  /// + saved otherwise).
  std::string index_snapshot_path;

  /// Shard-slice mode for distributed serving (dehealth_router + N
  /// backends): this process owns only shard `shard_index` of
  /// `shard_count` — its score source covers the auxiliary id range
  /// [begin, end) of that shard, with LOCAL auxiliary ids 0..end-begin.
  /// This changes this process's results (it sees a sliced universe), so
  /// both fields are part of the job fingerprint. shard_count == 1 (the
  /// default) disables slice mode. Mutually exclusive with
  /// enable_filtering (filter thresholds are global).
  int shard_index = 0;
  int shard_count = 1;

  /// Durable checkpoint/resume (src/job/): when non-empty, the attack runs
  /// through the crash-safe job runner rooted at this directory — per-user
  /// work is committed in atomically written, checksummed shards, and a
  /// re-run with the same forums + config resumes from the last durable
  /// shard with bitwise-identical final output. Consumed by
  /// RunDeHealthAttackJob (src/job/runner.h) and the serving engine;
  /// DeHealth::Run itself ignores it.
  std::string job_dir;
  /// Users per durable shard (>= 1): smaller shards checkpoint more often
  /// (less work lost to a crash) at the cost of more small files.
  int job_shard_size = 64;
};

/// Everything the two phases produced; kept so benches and callers can
/// evaluate Top-K success and refined accuracy from one run.
struct DeHealthResult {
  std::vector<std::vector<double>> similarity;  // s_uv matrix (Run only)
  CandidateSets candidates;                     // final candidate sets C_u
  std::vector<bool> rejected;                   // u → ⊥ decided by filtering
  RefinedDaResult refined;                      // phase-2 predictions
};

/// The phase-1 global state (candidate sets + filtering verdicts) a
/// long-lived query service precomputes once and then answers per-user
/// queries against. Produced by DeHealth::SelectCandidates; consumed by
/// DeHealth::RefineUsers.
struct DeHealthCandidates {
  CandidateSets candidates;    // post-filtering when filtering is enabled
  std::vector<bool> rejected;  // u → ⊥ decided by filtering
};

/// The De-Health framework: Top-K DA (structural similarity + candidate
/// selection + optional filtering) followed by refined DA (per-user
/// classifier + optional open-world verification).
class DeHealth {
 public:
  explicit DeHealth(DeHealthConfig config = {});

  /// Runs both phases of Algorithm 1 on an anonymized/auxiliary UDA-graph
  /// pair. Deterministic given the config seeds.
  StatusOr<DeHealthResult> Run(const UdaGraph& anonymized,
                               const UdaGraph& auxiliary) const;

  /// Runs phases 1b-2 against an externally provided score source (the
  /// candidate index, or a matrix wrapped in a DenseCandidateSource).
  /// DeHealthResult::similarity stays empty.
  StatusOr<DeHealthResult> RunWithSource(const UdaGraph& anonymized,
                                         const UdaGraph& auxiliary,
                                         const CandidateSource& scores) const;

  /// Phases 1b-1c only: Top-K candidate selection plus (when enabled)
  /// filtering — exactly the state Run/RunWithSource compute before phase
  /// 2. Direct selection reads each row once, and filtering takes its
  /// global range from that same pass; graph-matching selection is global
  /// and forms the whole matrix from the source's rows unless the source
  /// holds one. When `raw` is non-null it receives the UNFILTERED phase-1b
  /// state — the serving engine keeps both resident.
  StatusOr<DeHealthCandidates> SelectCandidates(
      const CandidateSource& scores, DeHealthCandidates* raw = nullptr) const;

  /// Batch entry point for the serving path: phase-2 refined-DA answers
  /// for just the listed anonymized users against precomputed phase-1
  /// state (result entry i belongs to users[i]). Bitwise-identical to the
  /// corresponding entries of a full Run for any batch composition — see
  /// RunRefinedDaForUsers.
  StatusOr<RefinedDaResult> RefineUsers(const UdaGraph& anonymized,
                                        const UdaGraph& auxiliary,
                                        const CandidateSource& scores,
                                        const DeHealthCandidates& state,
                                        const std::vector<int>& users) const;

  const DeHealthConfig& config() const { return config_; }

 private:
  DeHealthConfig config_;
};

/// The paper's "Stylometry" comparison method: the refined-DA classifier
/// applied directly against *all* auxiliary users, without the Top-K phase.
StatusOr<RefinedDaResult> RunStylometryBaseline(
    const UdaGraph& anonymized, const UdaGraph& auxiliary,
    const std::vector<std::vector<double>>& similarity,
    const RefinedDaConfig& config);

}  // namespace dehealth

#endif  // DEHEALTH_CORE_DE_HEALTH_H_
