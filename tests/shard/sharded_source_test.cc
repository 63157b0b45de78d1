// In-process sharding: IndexedCandidateSource over N contiguous index
// slices (BuildShardIndexes) must answer bitwise what the single index
// answers, for every shard and thread count.

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "index/indexed_source.h"
#include "index/pipeline.h"
#include "shard/partition.h"
#include "shard/shard_index.h"
#include "testing/scoped_temp_dir.h"

namespace dehealth {
namespace {

SimilarityConfig SimConfig() {
  SimilarityConfig config;
  config.idf_weight_attributes = true;
  return config;
}

/// One closed-world scenario shared by every golden-equivalence test; the
/// single-index source is THE reference every sharded layout must match
/// bitwise.
class ShardedSourceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto forum = GenerateForum(WebMdLikeConfig(40, 23));
    ASSERT_TRUE(forum.ok());
    auto scenario = MakeClosedWorldScenario(forum->dataset, 0.5, 11);
    ASSERT_TRUE(scenario.ok());
    anon_ = new UdaGraph(BuildUdaGraph(scenario->anonymized));
    aux_ = new UdaGraph(BuildUdaGraph(scenario->auxiliary));
    auto index = CandidateIndex::Build(*aux_, SimConfig());
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    full_ = new CandidateIndex(std::move(index).value());
    reference_ = new IndexedCandidateSource(*anon_, {*full_});
  }

  static StatusOr<IndexedCandidateSource> MakeSharded(int num_shards,
                                                      int num_threads = 0) {
    auto shards = BuildShardIndexes("", *aux_, SimConfig(), num_shards);
    if (!shards.ok()) return shards.status();
    return IndexedCandidateSource(*anon_, std::move(shards).value(),
                                  num_threads);
  }

  static UdaGraph* anon_;
  static UdaGraph* aux_;
  static CandidateIndex* full_;
  static IndexedCandidateSource* reference_;
};

UdaGraph* ShardedSourceTest::anon_ = nullptr;
UdaGraph* ShardedSourceTest::aux_ = nullptr;
CandidateIndex* ShardedSourceTest::full_ = nullptr;
IndexedCandidateSource* ShardedSourceTest::reference_ = nullptr;

TEST_F(ShardedSourceTest, ScoreAndRowMatchSingleIndexForEveryShardCount) {
  for (int n : {1, 2, 3, 8}) {
    auto sharded = MakeSharded(n);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ASSERT_EQ(sharded->num_slices(), n);
    EXPECT_EQ(sharded->num_anonymized(), reference_->num_anonymized());
    EXPECT_EQ(sharded->num_auxiliary(), reference_->num_auxiliary());
    std::vector<double> scratch_a, scratch_b;
    for (int u = 0; u < sharded->num_anonymized(); ++u) {
      const std::vector<double>& row = sharded->Row(u, &scratch_a);
      const std::vector<double>& want = reference_->Row(u, &scratch_b);
      ASSERT_EQ(row.size(), want.size());
      for (size_t v = 0; v < row.size(); ++v) {
        // Bitwise, not approximate: the sharded kernel IS the dense
        // kernel on a slice.
        ASSERT_EQ(row[v], want[v]) << "n=" << n << " u=" << u << " v=" << v;
      }
      for (int v = 0; v < sharded->num_auxiliary(); v += 7)
        ASSERT_EQ(sharded->Score(u, v), reference_->Score(u, v));
    }
  }
}

TEST_F(ShardedSourceTest, TopKBitwiseIdenticalAcrossShardAndThreadCounts) {
  auto golden = reference_->TopK(5, 1);
  ASSERT_TRUE(golden.ok());
  for (int n : {1, 2, 3, 8}) {
    for (int threads : {1, 2, 0}) {
      auto sharded = MakeSharded(n, threads);
      ASSERT_TRUE(sharded.ok());
      auto got = sharded->TopK(5, threads);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, *golden) << "n=" << n << " threads=" << threads;
    }
  }
}

TEST_F(ShardedSourceTest, TopKForUsersMatchesSingleIndex) {
  const std::vector<int> users = {0, 3, 9, 14, 14, 1};
  auto golden = reference_->TopKForUsers(users, 4, 1);
  ASSERT_TRUE(golden.ok());
  for (int n : {2, 3, 8}) {
    auto sharded = MakeSharded(n);
    ASSERT_TRUE(sharded.ok());
    auto got = sharded->TopKForUsers(users, 4, 2);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, *golden) << "n=" << n;
  }
}

TEST_F(ShardedSourceTest, RejectsBadArguments) {
  auto sharded = MakeSharded(3);
  ASSERT_TRUE(sharded.ok());
  EXPECT_FALSE(sharded->TopK(0, 1).ok());
  EXPECT_FALSE(sharded->TopKForUsers({-1}, 3, 1).ok());
  EXPECT_FALSE(
      sharded->TopKForUsers({sharded->num_anonymized()}, 3, 1).ok());
}

TEST_F(ShardedSourceTest, SliceIndexDataKeepsGlobalState) {
  const std::vector<ShardRange> ranges =
      ComputeShardRanges(full_->num_auxiliary(), 3);
  for (int i = 0; i < 3; ++i) {
    const CandidateIndexData slice =
        SliceIndexData(full_->data(), ranges[static_cast<size_t>(i)], i, 3);
    EXPECT_EQ(slice.shard_index, static_cast<uint32_t>(i));
    EXPECT_EQ(slice.shard_count, 3u);
    EXPECT_EQ(slice.shard_begin,
              static_cast<uint32_t>(ranges[static_cast<size_t>(i)].begin));
    EXPECT_EQ(slice.shard_total,
              static_cast<uint32_t>(full_->num_auxiliary()));
    EXPECT_EQ(slice.users.size(),
              static_cast<size_t>(ranges[static_cast<size_t>(i)].size()));
    // The universe fingerprint and GLOBAL idf table travel verbatim —
    // that is what makes per-shard scores bitwise-equal to the full run.
    EXPECT_EQ(slice.auxiliary_fingerprint,
              full_->data().auxiliary_fingerprint);
    EXPECT_EQ(slice.idf_table, full_->data().idf_table);
  }
}

TEST_F(ShardedSourceTest, LoadOrBuildShardIndexMatchesSlicing) {
  auto shard = LoadOrBuildShardIndex("", *aux_, SimConfig(), 1, 3);
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  const std::vector<ShardRange> ranges =
      ComputeShardRanges(full_->num_auxiliary(), 3);
  EXPECT_EQ(shard->num_auxiliary(), ranges[1].size());
  const std::vector<IndexedUserFeatures> queries =
      shard->ComputeQueryFeatures(*anon_);
  for (int u = 0; u < 3; ++u)
    for (int local = 0; local < shard->num_auxiliary(); ++local)
      ASSERT_EQ(shard->ExactScore(queries[static_cast<size_t>(u)], local),
                reference_->Score(u, ranges[1].begin + local));
  EXPECT_FALSE(LoadOrBuildShardIndex("", *aux_, SimConfig(), 3, 3).ok());
  EXPECT_FALSE(LoadOrBuildShardIndex("", *aux_, SimConfig(), -1, 3).ok());
}

TEST_F(ShardedSourceTest, ShardSnapshotsRoundTripAndQuarantine) {
  const ScopedTempDir dir;
  const std::string base = dir.File("aux.dhix");

  auto built = BuildShardIndexes(base, *aux_, SimConfig(), 3);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  for (int i = 0; i < 3; ++i)
    EXPECT_TRUE(std::filesystem::exists(ShardSnapshotPath(base, i, 3)));

  // Warm start: loads the snapshots and answers identically.
  auto reloaded = BuildShardIndexes(base, *aux_, SimConfig(), 3);
  ASSERT_TRUE(reloaded.ok());
  for (size_t i = 0; i < 3; ++i)
    EXPECT_EQ((*reloaded)[i].data().users.size(),
              (*built)[i].data().users.size());

  // Corrupt ONE shard file: that shard is quarantined and rebuilt; the
  // other two still load from disk. The run never fails.
  const std::string victim = ShardSnapshotPath(base, 1, 3);
  {
    std::fstream f(victim,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(64);
    const char garbage[8] = {'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X'};
    f.write(garbage, sizeof(garbage));
  }
  auto recovered = BuildShardIndexes(base, *aux_, SimConfig(), 3);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(std::filesystem::exists(victim + ".quarantined"));
  EXPECT_TRUE(std::filesystem::exists(victim));  // rewritten after rebuild
  IndexedCandidateSource source(*anon_, std::move(recovered).value());
  auto golden = reference_->TopK(5, 1);
  auto got = source.TopK(5, 1);
  ASSERT_TRUE(golden.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, *golden);
}

TEST_F(ShardedSourceTest, AttackWithShardsMatchesDenseAttack) {
  DeHealthConfig dense;
  dense.top_k = 5;
  dense.refined.learner = LearnerKind::kNearestCentroid;
  dense.num_threads = 2;
  auto golden = RunDeHealthAttack(*anon_, *aux_, dense);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  for (int n : {2, 3, 8}) {
    DeHealthConfig sharded = dense;
    sharded.num_shards = n;
    auto got = RunDeHealthAttack(*anon_, *aux_, sharded);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->candidates, golden->candidates) << "n=" << n;
    EXPECT_EQ(got->refined.predictions, golden->refined.predictions)
        << "n=" << n;
  }
}

TEST_F(ShardedSourceTest, AttackWithShardsAndFilteringMatchesDense) {
  DeHealthConfig dense;
  dense.top_k = 5;
  dense.enable_filtering = true;
  dense.refined.learner = LearnerKind::kNearestCentroid;
  auto golden = RunDeHealthAttack(*anon_, *aux_, dense);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  DeHealthConfig sharded = dense;
  sharded.num_shards = 3;
  auto got = RunDeHealthAttack(*anon_, *aux_, sharded);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->candidates, golden->candidates);
  EXPECT_EQ(got->rejected, golden->rejected);
}

TEST_F(ShardedSourceTest, InvalidShardConfigsAreRejected) {
  DeHealthConfig config;
  config.top_k = 5;
  config.num_shards = 2;
  config.shard_count = 2;  // in-process and slice mode are exclusive
  EXPECT_FALSE(BuildAttackScoreSource(*anon_, *aux_, config).ok());
  DeHealthConfig filtered_slice;
  filtered_slice.top_k = 5;
  filtered_slice.shard_count = 2;
  filtered_slice.enable_filtering = true;  // needs global thresholds
  EXPECT_FALSE(BuildAttackScoreSource(*anon_, *aux_, filtered_slice).ok());
  DeHealthConfig bad_index;
  bad_index.top_k = 5;
  bad_index.shard_count = 2;
  bad_index.shard_index = 2;  // out of range
  EXPECT_FALSE(BuildAttackScoreSource(*anon_, *aux_, bad_index).ok());
}

}  // namespace
}  // namespace dehealth
