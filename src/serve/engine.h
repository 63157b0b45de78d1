#ifndef DEHEALTH_SERVE_ENGINE_H_
#define DEHEALTH_SERVE_ENGINE_H_

#include <memory>
#include <vector>

#include "core/de_health.h"
#include "index/pipeline.h"
#include "serve/handler.h"
#include "serve/protocol.h"

namespace dehealth {

/// The load-once heart of dehealth_serve: owns the UDA-graph pair, the
/// score source (the candidate index, or a matrix-backed engine's matrix,
/// built exactly as RunDeHealthAttack builds it), and the precomputed
/// phase-1 state — then answers per-user queries without redoing any
/// global work.
///
/// Determinism contract: every answer is bitwise-identical to the
/// corresponding slice of a one-shot RunDeHealthAttack with the same
/// config, for any batch composition, query order, or thread count (see
/// DESIGN.md "Serving"). That is what makes request coalescing safe.
///
/// All query methods are const and thread-compatible; the server calls
/// them from a single executor thread and parallelizes inside a batch via
/// the library's ParallelFor.
/// In slice mode (config.shard_count > 1) the engine owns one contiguous
/// range of the auxiliary universe: scores are bitwise-equal to the full
/// run restricted to that range (global features/IDF travel in the shard
/// snapshot), and every answered candidate id is translated back to the
/// GLOBAL auxiliary id (+ shard_begin) so a router can merge answers
/// without knowing shard layouts. Refine/Filtered are refused in slice
/// mode — their thresholds and matching are universe-global.
class QueryEngine : public QueryHandler {
 public:
  /// Builds the engine: score source (index load/build, or an engine
  /// matrix), phase-1b candidate sets, and — when config.enable_filtering
  /// — the phase-1c filtering verdicts. Everything a query needs is
  /// resident after this returns. When config.job_dir is set, phase 1
  /// runs through the crash-safe job runner (src/job/): warm starts load
  /// durable shards instead of recomputing, an interrupted warm start
  /// resumes on the next launch, and a SIGTERM during it returns
  /// Cancelled.
  static StatusOr<std::unique_ptr<QueryEngine>> Create(UdaGraph anonymized,
                                                       UdaGraph auxiliary,
                                                       DeHealthConfig config);

  /// Phase-1b Top-K candidate sets for the listed users. k == 0 means the
  /// configured K (answered from the precomputed sets); other k values
  /// re-query the score source (direct selection only — graph matching is
  /// global and precomputes exactly one K).
  StatusOr<TopKAnswer> TopK(const std::vector<int>& users,
                            int k) const override;

  /// TopK carrying exact scores (answers kTopKScored). Same k semantics as
  /// TopK; candidate ids are global in slice mode.
  StatusOr<ScoredTopKAnswer> TopKScored(const std::vector<int>& users,
                                        int k) const override;

  /// Phase-2 refined-DA predictions for the listed users, against the
  /// precomputed (post-filtering) candidate state.
  StatusOr<RefinedAnswer> Refine(const std::vector<int>& users) const override;

  /// Post-filtering candidate sets + ⊥ verdicts. FailedPrecondition when
  /// the engine was built without enable_filtering.
  StatusOr<FilteredAnswer> Filtered(
      const std::vector<int>& users) const override;

  /// Shard identity (shard 0 of 1 unless built with --shard-count).
  ShardInfoAnswer ShardInfo() const override;

  int num_anonymized() const override;
  int num_auxiliary() const;
  int default_top_k() const override { return attack_.config().top_k; }
  const DeHealthConfig& config() const { return attack_.config(); }

 private:
  QueryEngine(UdaGraph anonymized, UdaGraph auxiliary, DeHealthConfig config);

  /// Fills scores_ / raw_ / state_; factored out of Create so members live
  /// at their final addresses before anything borrows them.
  Status Init();

  Status ValidateUsers(const std::vector<int>& users) const;

  /// TopK resolution under LOCAL candidate ids (shared by TopK and
  /// TopKScored; the public methods translate to global ids afterwards).
  StatusOr<TopKAnswer> TopKLocal(const std::vector<int>& users, int k) const;

  UdaGraph anonymized_;
  UdaGraph auxiliary_;
  DeHealth attack_;
  /// The score source plus whatever storage it borrows (candidate index or
  /// engine matrix) — built by BuildAttackScoreSource, the same
  /// construction the one-shot pipeline and the job runner use.
  std::unique_ptr<AttackScoreSource> bundle_;
  DeHealthCandidates raw_;    // phase 1b only (serves kTopK at default K)
  DeHealthCandidates state_;  // post-filtering state phase 2 runs against

  const CandidateSource& scores() const { return *bundle_->source; }
};

}  // namespace dehealth

#endif  // DEHEALTH_SERVE_ENGINE_H_
