// Implements index/pipeline.h. Lives in src/shard/ (not src/index/)
// because BuildAttackScoreSource is the one place every score-source mode
// meets — dense, whole index, in-process shards, and fleet slice — and the
// sharded modes need src/shard/, which layers above src/index/.
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

/// The candidate-index slices a structural config asks for: the N shards
/// of an in-process run (--shards), this backend's one slice of a fleet
/// (--shard-count), or the whole index (--index).
StatusOr<std::vector<CandidateIndex>> LoadOrBuildSlices(
    const UdaGraph& auxiliary, const DeHealthConfig& config,
    const SimilarityConfig& sim_config) {
  if (config.num_shards > 1)
    return BuildShardIndexes(config.index_snapshot_path, auxiliary,
                             sim_config, config.num_shards);
  StatusOr<CandidateIndex> index =
      config.shard_count > 1
          ? LoadOrBuildShardIndex(config.index_snapshot_path, auxiliary,
                                  sim_config, config.shard_index,
                                  config.shard_count)
          : LoadOrBuildIndex(config.index_snapshot_path, auxiliary,
                             sim_config);
  if (!index.ok()) return index.status();
  std::vector<CandidateIndex> slices;
  slices.push_back(std::move(index).value());
  return slices;
}

}  // namespace

StatusOr<std::unique_ptr<AttackScoreSource>> BuildAttackScoreSource(
    const UdaGraph& anonymized, const UdaGraph& auxiliary,
    const DeHealthConfig& config) {
  if (config.num_shards < 1)
    return Status::InvalidArgument(
        "BuildAttackScoreSource: num_shards must be >= 1");
  if (config.shard_count < 1 || config.shard_index < 0 ||
      config.shard_index >= config.shard_count)
    return Status::InvalidArgument(
        "BuildAttackScoreSource: shard_index must be in [0, shard_count)");
  if (config.num_shards > 1 && config.shard_count > 1)
    return Status::InvalidArgument(
        "BuildAttackScoreSource: num_shards > 1 (in-process sharding) and "
        "shard_count > 1 (slice mode) are mutually exclusive");
  if (config.shard_count > 1 && config.enable_filtering)
    return Status::InvalidArgument(
        "BuildAttackScoreSource: filtering thresholds are global and cannot "
        "be computed on a shard slice");
  // The candidate index is a structural-kernel artifact, and in-process
  // shards are index slices, so the matrix-backed engines fail fast on
  // those knobs instead of silently degrading.
  const bool structural = config.engine == EngineKind::kStructural;
  if (!structural && (config.use_index || !config.index_snapshot_path.empty() ||
                      config.num_shards > 1))
    return Status::InvalidArgument(
        std::string("BuildAttackScoreSource: --index/--index-path/--shards "
                    "only apply to the structural engine, not --engine=") +
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

  if (structural &&
      (config.use_index || config.num_shards > 1 || config.shard_count > 1)) {
    StatusOr<std::vector<CandidateIndex>> slices =
        LoadOrBuildSlices(auxiliary, config, sim_config);
    if (slices.ok()) {
      // Snapshot loads come back with the default kAuto; the runtime SIMD
      // choice is a per-run knob, never part of the persisted index.
      for (CandidateIndex& slice : *slices)
        slice.set_simd_mode(sim_config.simd);
      bundle->source = std::make_unique<IndexedCandidateSource>(
          anonymized, std::move(slices).value(), config.num_threads);
      return bundle;
    }
    // Graceful degradation: an index that cannot be loaded, built, or
    // persisted is a performance feature failing, not a correctness one —
    // warn and continue on the dense path instead of failing the attack.
    WarnDenseFallback(slices.status());
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
