#ifndef DEHEALTH_INDEX_PIPELINE_H_
#define DEHEALTH_INDEX_PIPELINE_H_

#include <memory>
#include <vector>

#include "core/de_health.h"
#include "core/uda_graph.h"

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
  /// Shard identity of this bundle (filled in every mode; trivially 0 of 1
  /// outside slice mode). `universe_size`/`universe_fingerprint` always
  /// describe the FULL auxiliary side, and `shard_begin` is the global
  /// auxiliary id of the source's local id 0 — what a slice-mode backend
  /// adds back when answering DHQP clients, and what the router checks
  /// across backends before serving.
  int shard_index = 0;
  int shard_count = 1;
  int shard_begin = 0;
  int universe_size = 0;
  uint64_t universe_fingerprint = 0;
};

/// Builds the engine's score source. The structural engine always scores
/// through an IndexedCandidateSource over one candidate index: the whole
/// index, or one fleet slice (config.shard_count > 1 — local auxiliary ids
/// over that shard's range). The index is loaded from
/// config.index_snapshot_path when the snapshot matches, else rebuilt and
/// saved there; a path that cannot be loaded, built or saved warns and
/// continues on an index kept in memory only, so an unusable snapshot file
/// never takes the attack down. Every mode answers bitwise what the dense
/// structural matrix answers (restricted to the slice). Matrix-backed
/// engines (--engine=blind|community) reject config.index_snapshot_path
/// and, in slice mode, keep their shard's columns.
/// Defined in src/shard/attack_pipeline.cc (slice mode pulls in
/// src/shard/, which layers above src/index/).
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
