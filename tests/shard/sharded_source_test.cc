// Fleet slices: each backend's IndexedCandidateSource over its one
// candidate-index slice (LoadOrBuildShardIndex) must answer bitwise the
// segment of what the whole index answers, and the slices' local Top-K
// lists must merge (MergeScoredTopK, the router's kernel) into the whole
// index's Top-K — for every shard and thread count.

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/top_k.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "index/indexed_source.h"
#include "index/pipeline.h"
#include "index/snapshot.h"
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
/// whole-index source is THE reference every slice must match bitwise.
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
    reference_ = new IndexedCandidateSource(*anon_, *full_);
  }

  /// Slice `i` of `n` as a fleet backend builds it: local auxiliary ids
  /// over ComputeShardRanges' i-th range.
  static StatusOr<IndexedCandidateSource> MakeSlice(int i, int n,
                                                    int num_threads = 0) {
    auto shard = LoadOrBuildShardIndex("", *aux_, SimConfig(), i, n);
    if (!shard.ok()) return shard.status();
    return IndexedCandidateSource(*anon_, std::move(shard).value(),
                                  num_threads);
  }

  /// What a router answers for `users` over an n-slice fleet: each slice's
  /// local Top-K with exact scores under GLOBAL ids (as
  /// QueryEngine::TopKScored returns them), merged by MergeScoredTopK.
  static CandidateSets MergedTopK(int n, const std::vector<int>& users, int k,
                                  int num_threads) {
    const std::vector<ShardRange> ranges =
        ComputeShardRanges(reference_->num_auxiliary(), n);
    std::vector<std::vector<std::vector<ScoredUser>>> per_user(
        users.size(), std::vector<std::vector<ScoredUser>>(ranges.size()));
    for (int i = 0; i < n; ++i) {
      auto slice = MakeSlice(i, n, num_threads);
      EXPECT_TRUE(slice.ok()) << slice.status().ToString();
      if (!slice.ok()) return {};
      auto local = slice->TopKForUsers(users, k, num_threads);
      EXPECT_TRUE(local.ok()) << local.status().ToString();
      if (!local.ok()) return {};
      for (size_t q = 0; q < users.size(); ++q)
        for (const int v : (*local)[q])
          per_user[q][static_cast<size_t>(i)].push_back(
              ScoredUser{slice->Score(users[q], v),
                         v + ranges[static_cast<size_t>(i)].begin});
    }
    CandidateSets merged(users.size());
    for (size_t q = 0; q < users.size(); ++q)
      for (const ScoredUser& c : MergeScoredTopK(per_user[q], k))
        merged[q].push_back(c.user);
    return merged;
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
  std::vector<double> scratch_a, scratch_b;
  for (int n : {1, 2, 3, 8}) {
    const std::vector<ShardRange> ranges =
        ComputeShardRanges(reference_->num_auxiliary(), n);
    for (int i = 0; i < n; ++i) {
      const ShardRange range = ranges[static_cast<size_t>(i)];
      for (int threads : {1, 2, 0}) {
        auto slice = MakeSlice(i, n, threads);
        ASSERT_TRUE(slice.ok()) << slice.status().ToString();
        EXPECT_EQ(slice->num_anonymized(), reference_->num_anonymized());
        ASSERT_EQ(slice->num_auxiliary(), range.size());
        for (int u = 0; u < slice->num_anonymized(); ++u) {
          const std::vector<double>& row = slice->Row(u, &scratch_a);
          const std::vector<double>& whole = reference_->Row(u, &scratch_b);
          ASSERT_EQ(row.size(), static_cast<size_t>(range.size()));
          // Bitwise, not approximate: a slice row IS the [begin, end)
          // segment of the whole index's row.
          for (size_t l = 0; l < row.size(); ++l)
            ASSERT_EQ(std::bit_cast<uint64_t>(row[l]),
                      std::bit_cast<uint64_t>(
                          whole[static_cast<size_t>(range.begin) + l]))
                << "n=" << n << " i=" << i << " threads=" << threads
                << " u=" << u << " local=" << l;
          for (int local = 0; local < range.size(); local += 7)
            ASSERT_EQ(slice->Score(u, local),
                      reference_->Score(u, range.begin + local));
        }
      }
    }
  }
}

TEST_F(ShardedSourceTest, TopKBitwiseIdenticalAcrossShardAndThreadCounts) {
  auto golden = reference_->TopK(5, 1);
  ASSERT_TRUE(golden.ok());
  std::vector<int> all(static_cast<size_t>(reference_->num_anonymized()));
  std::iota(all.begin(), all.end(), 0);
  for (int n : {1, 2, 3, 8})
    for (int threads : {1, 2, 0})
      EXPECT_EQ(MergedTopK(n, all, 5, threads), *golden)
          << "n=" << n << " threads=" << threads;
}

TEST_F(ShardedSourceTest, TopKForUsersMatchesSingleIndex) {
  const std::vector<int> users = {0, 3, 9, 14, 14, 1};
  auto golden = reference_->TopKForUsers(users, 4, 1);
  ASSERT_TRUE(golden.ok());
  for (int n : {2, 3, 8})
    EXPECT_EQ(MergedTopK(n, users, 4, 2), *golden) << "n=" << n;
}

TEST_F(ShardedSourceTest, RejectsBadArguments) {
  auto slice = MakeSlice(1, 3);
  ASSERT_TRUE(slice.ok());
  EXPECT_FALSE(slice->TopK(0, 1).ok());
  EXPECT_FALSE(slice->TopKForUsers({-1}, 3, 1).ok());
  EXPECT_FALSE(slice->TopKForUsers({slice->num_anonymized()}, 3, 1).ok());
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
    EXPECT_EQ(slice.idf.weights, full_->data().idf.weights);
    EXPECT_EQ(slice.idf.default_weight, full_->data().idf.default_weight);
  }
}

TEST_F(ShardedSourceTest, LoadOrBuildShardIndexMatchesSlicing) {
  auto shard = LoadOrBuildShardIndex("", *aux_, SimConfig(), 1, 3);
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  const std::vector<ShardRange> ranges =
      ComputeShardRanges(full_->num_auxiliary(), 3);
  EXPECT_EQ(shard->num_auxiliary(), ranges[1].size());
  const std::vector<UserFeatures> queries =
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
  auto build_all = [&] {
    std::vector<CandidateIndex> shards;
    for (int i = 0; i < 3; ++i) {
      auto shard = LoadOrBuildShardIndex(base, *aux_, SimConfig(), i, 3);
      EXPECT_TRUE(shard.ok()) << shard.status().ToString();
      if (shard.ok()) shards.push_back(std::move(shard).value());
    }
    return shards;
  };

  const std::vector<CandidateIndex> built = build_all();
  ASSERT_EQ(built.size(), 3u);
  for (int i = 0; i < 3; ++i)
    EXPECT_TRUE(std::filesystem::exists(ShardSnapshotPath(base, i, 3)));

  // Warm start: loads the snapshots, byte for byte what was built.
  const std::vector<CandidateIndex> reloaded = build_all();
  ASSERT_EQ(reloaded.size(), 3u);
  for (size_t i = 0; i < 3; ++i)
    EXPECT_EQ(EncodeIndexSnapshot(reloaded[i]), EncodeIndexSnapshot(built[i]));

  // Corrupt ONE shard file: that shard is quarantined and rebuilt — the
  // backend never fails — and the rebuild equals the original.
  const std::string victim = ShardSnapshotPath(base, 1, 3);
  {
    std::fstream f(victim,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(64);
    const char garbage[8] = {'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X'};
    f.write(garbage, sizeof(garbage));
  }
  auto recovered = LoadOrBuildShardIndex(base, *aux_, SimConfig(), 1, 3);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(std::filesystem::exists(victim + ".quarantined"));
  EXPECT_TRUE(std::filesystem::exists(victim));  // rewritten after rebuild
  EXPECT_EQ(EncodeIndexSnapshot(*recovered), EncodeIndexSnapshot(built[1]));
}

TEST_F(ShardedSourceTest, InvalidShardConfigsAreRejected) {
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
