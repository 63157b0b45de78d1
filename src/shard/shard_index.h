#ifndef DEHEALTH_SHARD_SHARD_INDEX_H_
#define DEHEALTH_SHARD_SHARD_INDEX_H_

#include <string>

#include "common/status.h"
#include "core/similarity.h"
#include "core/uda_graph.h"
#include "index/candidate_index.h"
#include "shard/partition.h"

namespace dehealth {

/// Slices one shard out of a full index's persistent data: the users in
/// `range` (re-indexed to local ids), with every score-shaping field, the
/// UNIVERSE fingerprint and the GLOBAL idf table copied verbatim — so a
/// shard scores any (query, member) pair bitwise-identically to the full
/// index (the per-pair kernel never looks outside the pair).
CandidateIndexData SliceIndexData(const CandidateIndexData& full,
                                  ShardRange range, int shard_index,
                                  int shard_count);

/// One shard's index for a slice-mode backend process (dehealth_serve
/// --shard-index=i --shard-count=n), partitioning `auxiliary` via
/// ComputeShardRanges. With a non-empty `snapshot_path` the shard
/// persists/loads its own ShardSnapshotPath(snapshot_path, i, n) file: a
/// fresh snapshot (config + universe fingerprint + shard identity all
/// matching) is reused, a stale or missing one is rebuilt by slicing one
/// full in-memory build, and a corrupt one is quarantined (renamed to
/// `<file>.quarantined`, counted by
/// dehealth_shard_snapshot_quarantines_total) before the rebuild — a bad
/// file never takes the backend down, a failing save does (the caller
/// asked for persistence). N backends can each build their own slice from
/// the shared auxiliary dataset.
StatusOr<CandidateIndex> LoadOrBuildShardIndex(
    const std::string& snapshot_path, const UdaGraph& auxiliary,
    const SimilarityConfig& config, int shard_index, int shard_count);

}  // namespace dehealth

#endif  // DEHEALTH_SHARD_SHARD_INDEX_H_
