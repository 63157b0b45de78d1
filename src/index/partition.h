#ifndef DEHEALTH_INDEX_PARTITION_H_
#define DEHEALTH_INDEX_PARTITION_H_

#include <string>
#include <vector>

namespace dehealth {

/// One shard's contiguous auxiliary-id range [begin, end). The partition
/// invariant every sharded path relies on: ranges are disjoint, ordered,
/// and cover [0, total) exactly — so global id v lives in precisely one
/// shard, at local id v - begin (see DESIGN.md "Sharding").
struct ShardRange {
  int begin = 0;
  int end = 0;
  int size() const { return end - begin; }
  bool operator==(const ShardRange&) const = default;
};

/// Splits [0, total) into `num_shards` near-equal contiguous ranges: the
/// first total % num_shards shards get one extra user. Deterministic, so
/// every process (CLI, backends, router, bench) derives the same partition
/// from (total, num_shards) alone — no partition map is ever persisted or
/// exchanged. num_shards < 1 is treated as 1; shards beyond `total` come
/// back empty.
std::vector<ShardRange> ComputeShardRanges(int total, int num_shards);

/// Snapshot file of shard i of n under the snapshot path `base`: the whole
/// index (shard 0 of 1) keeps `base`; a slice strips a trailing ".dhix"
/// and appends ".shard-<i>-of-<n>.dhix" (so "aux.dhix" →
/// "aux.shard-0-of-3.dhix"). Empty `base` stays empty (persistence off).
std::string ShardSnapshotPath(const std::string& base, int shard_index,
                              int shard_count);

}  // namespace dehealth

#endif  // DEHEALTH_INDEX_PARTITION_H_
