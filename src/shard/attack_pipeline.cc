// Implements index/pipeline.h. Lives in src/shard/ (not src/index/)
// because BuildAttackScoreSource is the one place every score-source mode
// meets — dense, whole index, and fleet slice — and the slice mode needs
// src/shard/, which layers above src/index/.
#include "index/pipeline.h"

#include <cstdio>
#include <string>
#include <utility>

#include "engines/pipeline.h"
#include "index/indexed_source.h"
#include "index/snapshot.h"
#include "obs/standard_metrics.h"
#include "shard/partition.h"
#include "shard/shard_index.h"

namespace dehealth {

namespace {

void WarnDenseFallback(const Status& status) {
  std::fprintf(stderr,
               "warning: candidate index unavailable (%s); falling back "
               "to dense similarity path\n",
               status.ToString().c_str());
  obs::GetIndexMetrics().dense_fallbacks->Increment();
}

}  // namespace

StatusOr<std::unique_ptr<AttackScoreSource>> BuildAttackScoreSource(
    const UdaGraph& anonymized, const UdaGraph& auxiliary,
    const DeHealthConfig& config) {
  if (config.shard_count < 1 || config.shard_index < 0 ||
      config.shard_index >= config.shard_count)
    return Status::InvalidArgument(
        "BuildAttackScoreSource: shard_index must be in [0, shard_count)");
  if (config.shard_count > 1 && config.enable_filtering)
    return Status::InvalidArgument(
        "BuildAttackScoreSource: filtering thresholds are global and cannot "
        "be computed on a shard slice");
  // The candidate index is a structural-kernel artifact, so the
  // matrix-backed engines fail fast on its knobs instead of silently
  // degrading.
  const bool structural = config.engine == EngineKind::kStructural;
  if (!structural && (config.use_index || !config.index_snapshot_path.empty()))
    return Status::InvalidArgument(
        std::string("BuildAttackScoreSource: --index/--index-path only "
                    "apply to the structural engine, not --engine=") +
        EngineKindName(config.engine));

  auto bundle = std::make_unique<AttackScoreSource>();
  SimilarityConfig sim_config = config.similarity;
  sim_config.num_threads = config.num_threads;
  bundle->shard_index = config.shard_index;
  bundle->shard_count = config.shard_count;
  bundle->universe_size = auxiliary.num_users();
  bundle->universe_fingerprint = FingerprintForIndex(auxiliary);
  // Slice mode serves only its shard's auxiliary range under LOCAL ids —
  // the router (or the operator) re-anchors answers at shard_begin.
  const ShardRange range =
      ComputeShardRanges(bundle->universe_size, config.shard_count)
          [static_cast<size_t>(config.shard_index)];
  bundle->shard_begin = range.begin;

  if (structural && (config.use_index || config.shard_count > 1)) {
    // This backend's one slice of a fleet (--shard-count), or the whole
    // index (--index).
    StatusOr<CandidateIndex> index =
        config.shard_count > 1
            ? LoadOrBuildShardIndex(config.index_snapshot_path, auxiliary,
                                    sim_config, config.shard_index,
                                    config.shard_count)
            : LoadOrBuildIndex(config.index_snapshot_path, auxiliary,
                               sim_config);
    if (index.ok()) {
      // Snapshot loads come back with the default kAuto; the runtime SIMD
      // choice is a per-run knob, never part of the persisted index.
      index->set_simd_mode(sim_config.simd);
      bundle->source = std::make_unique<IndexedCandidateSource>(
          anonymized, std::move(index).value(), config.num_threads);
      return bundle;
    }
    // Graceful degradation: an index that cannot be loaded, built, or
    // persisted is a performance feature failing, not a correctness one —
    // warn and continue on the dense path instead of failing the attack.
    WarnDenseFallback(index.status());
    bundle->degraded_to_dense = true;
  }

  StatusOr<std::vector<std::vector<double>>> matrix =
      structural
          ? StructuralSimilarity(anonymized, auxiliary, sim_config)
                .ComputeMatrix()
          : BuildEngineMatrix(anonymized, auxiliary, config);
  if (!matrix.ok()) return matrix.status();
  bundle->similarity = std::move(matrix).value();
  if (config.shard_count > 1)
    for (std::vector<double>& row : bundle->similarity)
      row = std::vector<double>(row.begin() + range.begin,
                                row.begin() + range.end);
  bundle->source = std::make_unique<DenseCandidateSource>(bundle->similarity);
  return bundle;
}

StatusOr<DeHealthResult> RunDeHealthAttack(const UdaGraph& anonymized,
                                           const UdaGraph& auxiliary,
                                           const DeHealthConfig& config) {
  const DeHealth attack(config);
  StatusOr<std::unique_ptr<AttackScoreSource>> scores =
      BuildAttackScoreSource(anonymized, auxiliary, config);
  if (!scores.ok()) return scores.status();
  return attack.RunWithSource(anonymized, auxiliary, *(*scores)->source);
}

}  // namespace dehealth
