// MergeScoredTopK, the router's cross-shard merge, checked on its own: the
// per-range Top-K lists of any contiguous partition of a row, merged, must
// be exactly TopKForRow of the whole row — ties and empty ranges included.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/top_k.h"
#include "index/partition.h"

namespace dehealth {
namespace {

/// One backend's answer for `range`: its local Top-K, with scores and
/// GLOBAL ids.
std::vector<ScoredUser> RangeTopK(const std::vector<double>& row,
                                  ShardRange range, int k) {
  const std::vector<double> local(row.begin() + range.begin,
                                  row.begin() + range.end);
  std::vector<ScoredUser> scored;
  for (const int id : TopKForRow(local, k))
    scored.push_back({local[static_cast<size_t>(id)], id + range.begin});
  return scored;
}

TEST(MergeScoredTopKTest, MergedRangesEqualWholeRowTopK) {
  Rng rng(20260);
  for (const int n : {1, 2, 5, 17, 64}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    // Five distinct score values, so most candidates tie with others and
    // the id tie-break decides the order.
    std::vector<double> row(static_cast<size_t>(n));
    for (double& score : row)
      score = 0.25 * static_cast<double>(rng.NextInt(0, 4));
    for (const int shards : {1, 2, 3, 8}) {
      // n < shards leaves some ranges empty.
      const std::vector<ShardRange> ranges = ComputeShardRanges(n, shards);
      for (const int k : {1, 5, n + 3}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " k=" + std::to_string(k));
        std::vector<std::vector<ScoredUser>> per_shard;
        for (const ShardRange& range : ranges)
          per_shard.push_back(RangeTopK(row, range, k));
        const std::vector<ScoredUser> merged = MergeScoredTopK(per_shard, k);
        const std::vector<int> want = TopKForRow(row, k);
        ASSERT_EQ(merged.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(merged[i].user, want[i]) << "rank " << i;
          EXPECT_EQ(merged[i].score, row[static_cast<size_t>(want[i])]);
        }
      }
    }
  }
}

}  // namespace
}  // namespace dehealth
