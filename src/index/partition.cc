#include "index/partition.h"

namespace dehealth {

std::vector<ShardRange> ComputeShardRanges(int total, int num_shards) {
  if (num_shards < 1) num_shards = 1;
  if (total < 0) total = 0;
  std::vector<ShardRange> ranges(static_cast<size_t>(num_shards));
  const int base = total / num_shards;
  const int extra = total % num_shards;
  int begin = 0;
  for (int i = 0; i < num_shards; ++i) {
    const int size = base + (i < extra ? 1 : 0);
    ranges[static_cast<size_t>(i)] = ShardRange{begin, begin + size};
    begin += size;
  }
  return ranges;
}

std::string ShardSnapshotPath(const std::string& base, int shard_index,
                              int shard_count) {
  if (base.empty() || shard_count == 1) return base;
  std::string stem = base;
  constexpr const char kExt[] = ".dhix";
  constexpr size_t kExtLen = sizeof(kExt) - 1;
  if (stem.size() >= kExtLen &&
      stem.compare(stem.size() - kExtLen, kExtLen, kExt) == 0)
    stem.resize(stem.size() - kExtLen);
  return stem + ".shard-" + std::to_string(shard_index) + "-of-" +
         std::to_string(shard_count) + ".dhix";
}

}  // namespace dehealth
