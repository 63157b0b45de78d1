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
  /// Dense path: the materialized |Δ1|×|Δ2| matrix `source` borrows.
  std::vector<std::vector<double>> similarity;
  std::unique_ptr<CandidateSource> source;
  /// True when config.use_index was set but the index could not be
  /// loaded/built/persisted — the bundle degraded to the dense path with a
  /// warning on stderr instead of failing the whole attack.
  bool degraded_to_dense = false;
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

/// Builds the score source the config asks for: the dense similarity
/// matrix, or an IndexedCandidateSource over candidate-index slices — the
/// whole index (config.use_index; loaded from config.index_snapshot_path
/// when the snapshot matches, rebuilt + saved otherwise), N in-process
/// shards (config.num_shards > 1), or one fleet slice
/// (config.shard_count > 1 — local auxiliary ids over that shard's range).
/// Every mode answers bitwise what the dense matrix answers. Matrix-backed
/// engines (--engine=blind|community) are dense-only: they reject the
/// index knobs and num_shards > 1, and slice mode keeps their shard's
/// columns. Graceful degradation: an index that cannot be
/// loaded/built/persisted falls back to the dense path with a warning
/// (see `degraded_to_dense`) — an unusable snapshot file never takes the
/// attack down with it. Defined in src/shard/attack_pipeline.cc (the
/// sharded modes pull in src/shard/, which layers above src/index/).
StatusOr<std::unique_ptr<AttackScoreSource>> BuildAttackScoreSource(
    const UdaGraph& anonymized, const UdaGraph& auxiliary,
    const DeHealthConfig& config);

/// Runs the De-Health attack end-to-end, honoring the index knobs in
/// DeHealthConfig:
///   - use_index == false: identical to DeHealth::Run (dense matrix);
///   - use_index == true: builds the auxiliary-side candidate index (or
///     loads it from config.index_snapshot_path when the snapshot matches
///     the auxiliary side + config, persisting a rebuilt one otherwise)
///     and runs phases 1b-2 through it. Scores, candidate sets, filtering
///     and refined-DA predictions are bitwise-identical to the dense path;
///     DeHealthResult::similarity stays empty (the matrix is never formed).
/// config.job_dir is ignored here — use RunDeHealthAttackJob
/// (src/job/runner.h) for the checkpointed variant.
StatusOr<DeHealthResult> RunDeHealthAttack(const UdaGraph& anonymized,
                                           const UdaGraph& auxiliary,
                                           const DeHealthConfig& config);

}  // namespace dehealth

#endif  // DEHEALTH_INDEX_PIPELINE_H_
