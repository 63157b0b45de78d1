#include "index/partition.h"

#include <gtest/gtest.h>

namespace dehealth {
namespace {

TEST(ComputeShardRangesTest, PartitionsExactly) {
  for (int total : {0, 1, 7, 20, 101, 1000}) {
    for (int n : {1, 2, 3, 8, 16}) {
      const std::vector<ShardRange> ranges = ComputeShardRanges(total, n);
      ASSERT_EQ(ranges.size(), static_cast<size_t>(n))
          << "total=" << total << " n=" << n;
      int covered = 0;
      for (size_t i = 0; i < ranges.size(); ++i) {
        EXPECT_EQ(ranges[i].begin, covered) << "ranges must be contiguous";
        EXPECT_GE(ranges[i].size(), 0);
        covered = ranges[i].end;
      }
      EXPECT_EQ(covered, total) << "ranges must cover [0, total)";
    }
  }
}

TEST(ComputeShardRangesTest, NearEqualSizes) {
  const std::vector<ShardRange> ranges = ComputeShardRanges(10, 3);
  // 10 = 4 + 3 + 3: the first total % n shards carry the extra user.
  EXPECT_EQ(ranges[0].size(), 4);
  EXPECT_EQ(ranges[1].size(), 3);
  EXPECT_EQ(ranges[2].size(), 3);
}

TEST(ComputeShardRangesTest, MoreShardsThanUsers) {
  const std::vector<ShardRange> ranges = ComputeShardRanges(2, 5);
  ASSERT_EQ(ranges.size(), 5u);
  EXPECT_EQ(ranges[0].size(), 1);
  EXPECT_EQ(ranges[1].size(), 1);
  for (size_t i = 2; i < 5; ++i) EXPECT_EQ(ranges[i].size(), 0);
}

TEST(ComputeShardRangesTest, DegenerateArgumentsClamp) {
  EXPECT_EQ(ComputeShardRanges(10, 0).size(), 1u);
  EXPECT_EQ(ComputeShardRanges(10, -3).size(), 1u);
  EXPECT_EQ(ComputeShardRanges(10, 1)[0].size(), 10);
  const std::vector<ShardRange> empty = ComputeShardRanges(-5, 2);
  for (const ShardRange& r : empty) EXPECT_EQ(r.size(), 0);
}

TEST(ShardSnapshotPathTest, StripsAndAppends) {
  EXPECT_EQ(ShardSnapshotPath("aux.dhix", 0, 3), "aux.shard-0-of-3.dhix");
  EXPECT_EQ(ShardSnapshotPath("aux.dhix", 2, 3), "aux.shard-2-of-3.dhix");
  EXPECT_EQ(ShardSnapshotPath("/tmp/idx", 1, 2),
            "/tmp/idx.shard-1-of-2.dhix");
  EXPECT_EQ(ShardSnapshotPath("", 0, 4), "");
  // The whole index is shard 0 of 1 and keeps the path it was given.
  EXPECT_EQ(ShardSnapshotPath("aux.dhix", 0, 1), "aux.dhix");
}

TEST(ShardSnapshotPathTest, DistinctPerShard) {
  EXPECT_NE(ShardSnapshotPath("a.dhix", 0, 2),
            ShardSnapshotPath("a.dhix", 1, 2));
  EXPECT_NE(ShardSnapshotPath("a.dhix", 0, 2),
            ShardSnapshotPath("a.dhix", 0, 3));
}

}  // namespace
}  // namespace dehealth
