// Implements index/pipeline.h. Lives in src/shard/ (not src/index/)
// because BuildAttackScoreSource is the one place every score source
// meets — whole index, fleet slice and engine matrix — and the engine
// matrices come from src/engines/, which the index library does not link.
#include "index/pipeline.h"

#include <cstdio>
#include <string>
#include <utility>

#include "engines/pipeline.h"
#include "index/indexed_source.h"
#include "index/snapshot.h"

namespace dehealth {

StatusOr<std::unique_ptr<AttackScoreSource>> BuildAttackScoreSource(
    const UdaGraph& anonymized, const UdaGraph& auxiliary,
    const DeHealthConfig& config) {
  if (config.shard_count > 1 && config.enable_filtering)
    return Status::InvalidArgument(
        "BuildAttackScoreSource: filtering thresholds are global and cannot "
        "be computed on a shard slice");
  // The candidate index is a structural-kernel artifact, so the
  // matrix-backed engines fail fast on its snapshot path instead of
  // silently ignoring it.
  const bool structural = config.engine == EngineKind::kStructural;
  if (!structural && !config.index_snapshot_path.empty())
    return Status::InvalidArgument(
        std::string("BuildAttackScoreSource: --index-path only applies to "
                    "the structural engine, not --engine=") +
        EngineKindName(config.engine));

  auto bundle = std::make_unique<AttackScoreSource>();
  if (structural) {
    SimilarityConfig sim_config = config.similarity;
    sim_config.num_threads = config.num_threads;
    Status saved;
    StatusOr<CandidateIndex> index = LoadOrBuildIndex(
        config.index_snapshot_path, auxiliary, sim_config, config.shard_index,
        config.shard_count, &saved);
    if (!index.ok()) return index.status();
    // An unwritable snapshot path is a persistence failure, not a
    // correctness one: warn and score on the index just built.
    if (!saved.ok())
      std::fprintf(stderr,
                   "warning: index snapshot '%s' unusable (%s); continuing "
                   "with an in-memory index that is not saved\n",
                   config.index_snapshot_path.c_str(),
                   saved.ToString().c_str());
    bundle->slice = index->slice();
    bundle->source = std::make_unique<IndexedCandidateSource>(
        anonymized, std::move(index).value(), config.num_threads);
    return bundle;
  }

  StatusOr<IndexSlice> slice =
      ComputeIndexSlice(auxiliary, config.shard_index, config.shard_count);
  if (!slice.ok()) return slice.status();
  bundle->slice = *slice;
  StatusOr<std::vector<std::vector<double>>> matrix =
      BuildEngineMatrix(anonymized, auxiliary, config);
  if (!matrix.ok()) return matrix.status();
  bundle->similarity = std::move(matrix).value();
  if (slice->shard_count > 1)
    for (std::vector<double>& row : bundle->similarity)
      row = std::vector<double>(row.begin() + slice->range.begin,
                                row.begin() + slice->range.end);
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
