#ifndef DEHEALTH_INDEX_PIPELINE_H_
#define DEHEALTH_INDEX_PIPELINE_H_

#include <memory>
#include <vector>

#include "core/de_health.h"
#include "core/uda_graph.h"
#include "index/candidate_index.h"

namespace dehealth {

/// The phase-1a score source plus the storage it borrows — one owning
/// bundle shared by the one-shot pipeline (RunDeHealthAttack), the serving
/// engine (QueryEngine) and the checkpointing job runner (src/job/), so
/// all three construct scores identically and answers can never drift.
/// Heap-allocated because `source` borrows the sibling members by address.
struct AttackScoreSource {
  /// Matrix-backed engines only: the |Δ1|×|Δ2| matrix `source` borrows.
  /// Empty for the structural engine, which scores through the index.
  std::vector<std::vector<double>> similarity;
  std::unique_ptr<CandidateSource> source;
  /// The auxiliary users `source` scores (shard 0 of 1 outside slice
  /// mode). `slice.range.begin` is the global auxiliary id of the source's
  /// local id 0 — what a slice-mode backend adds back when answering DHQP
  /// clients — and the universe size and fingerprint are what the router
  /// checks across backends before serving.
  IndexSlice slice;
};

/// Builds the engine's score source. The structural engine always scores
/// through an IndexedCandidateSource over one candidate index:
/// LoadOrBuildIndex's shard config.shard_index of config.shard_count (the
/// whole index is shard 0 of 1; a slice answers local auxiliary ids over
/// its range). The index is loaded from config.index_snapshot_path when
/// the snapshot matches, else built and saved there; a snapshot that
/// cannot be saved warns and the run goes on with the index it built, so
/// an unusable snapshot path never takes the attack down. Every mode
/// answers bitwise what the dense structural matrix answers (restricted to
/// the slice). Matrix-backed engines (--engine=blind|community) reject
/// config.index_snapshot_path and, in slice mode, keep their shard's
/// columns. Defined in src/shard/attack_pipeline.cc, which links the
/// engines as well as the index.
StatusOr<std::unique_ptr<AttackScoreSource>> BuildAttackScoreSource(
    const UdaGraph& anonymized, const UdaGraph& auxiliary,
    const DeHealthConfig& config);

/// Runs the De-Health attack end-to-end: BuildAttackScoreSource, then
/// phases 1b-2 through DeHealth::RunWithSource. Scores, candidate sets,
/// filtering and refined-DA predictions are bitwise-identical to
/// DeHealth::Run (the dense reference); DeHealthResult::similarity stays
/// empty. config.job_dir is ignored here — use RunDeHealthAttackJob
/// (src/job/runner.h) for the checkpointed variant.
StatusOr<DeHealthResult> RunDeHealthAttack(const UdaGraph& anonymized,
                                           const UdaGraph& auxiliary,
                                           const DeHealthConfig& config);

}  // namespace dehealth

#endif  // DEHEALTH_INDEX_PIPELINE_H_
