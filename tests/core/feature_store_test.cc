// Equivalence suite for the blocked SoA feature store and its batched
// score kernel: every SIMD tier (scalar, SSE2, AVX2, auto) must be
// BITWISE-identical to the golden per-pair CombinedStructuralScore — on
// synthetic edge-case features (empty/odd/non-multiple-of-8 vector
// lengths, mismatched hop lengths, all-zero norms, empty attribute lists,
// non-integral weights) and on generated forums, across 1/4/8 threads.

#include "core/feature_store.h"

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/similarity.h"
#include "core/simd_dispatch.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "index/candidate_index.h"

namespace dehealth {
namespace {

const SimdMode kAllModes[] = {SimdMode::kScalar, SimdMode::kSse2,
                              SimdMode::kAvx2, SimdMode::kAuto};

/// Owns one synthetic user's feature vectors (UserFeatureView only
/// borrows).
struct FakeUser {
  double degree = 0.0;
  double weighted_degree = 0.0;
  std::vector<double> ncs;
  std::vector<double> hop;
  std::vector<double> weighted_hop;
  std::vector<std::pair<int, double>> attributes;
};

UserFeatureView ViewOf(const FakeUser& u) {
  UserFeatureView view;
  view.degree = u.degree;
  view.weighted_degree = u.weighted_degree;
  view.ncs = &u.ncs;
  view.hop = &u.hop;
  view.weighted_hop = &u.weighted_hop;
  view.attributes = &u.attributes;
  return view;
}

::testing::AssertionResult BitsEqual(double expected, double actual) {
  if (std::bit_cast<uint64_t>(expected) == std::bit_cast<uint64_t>(actual))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "expected " << expected << " (0x" << std::hex
         << std::bit_cast<uint64_t>(expected) << "), got " << actual << " (0x"
         << std::bit_cast<uint64_t>(actual) << std::dec << ")";
}

/// Asserts ScoreRow reproduces the golden kernel bitwise for every SIMD
/// tier.
void ExpectStoreMatchesGolden(const std::vector<FakeUser>& queries,
                              const std::vector<FakeUser>& candidates,
                              const SimilarityConfig& base_config) {
  std::vector<UserFeatureView> views;
  views.reserve(candidates.size());
  for (const FakeUser& c : candidates) views.push_back(ViewOf(c));
  const FeatureStore store = FeatureStore::Build(views);
  ASSERT_EQ(store.num_users(), static_cast<int>(candidates.size()));

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    SCOPED_TRACE("query=" + std::to_string(qi));
    const UserFeatureView query_view = ViewOf(queries[qi]);
    std::vector<double> golden(candidates.size());
    for (size_t v = 0; v < candidates.size(); ++v)
      golden[v] =
          CombinedStructuralScore(base_config, query_view, views[v]);

    const ScoreQuery q = store.MakeQuery(query_view);
    for (const SimdMode mode : kAllModes) {
      SCOPED_TRACE(std::string("simd=") + SimdModeName(mode));
      SimilarityConfig config = base_config;
      config.simd = mode;
      std::vector<double> row(candidates.size(), -1.0);
      store.ScoreRow(config, q, row.data());
      for (size_t v = 0; v < candidates.size(); ++v)
        EXPECT_TRUE(BitsEqual(golden[v], row[v])) << "candidate " << v;
    }
  }
}

TEST(SimdDispatchTest, ParseAndNames) {
  EXPECT_EQ(*ParseSimdMode("auto"), SimdMode::kAuto);
  EXPECT_EQ(*ParseSimdMode("scalar"), SimdMode::kScalar);
  EXPECT_EQ(*ParseSimdMode("sse2"), SimdMode::kSse2);
  EXPECT_EQ(*ParseSimdMode("avx2"), SimdMode::kAvx2);
  EXPECT_FALSE(ParseSimdMode("avx512").ok());
  EXPECT_FALSE(ParseSimdMode("").ok());
  for (const SimdMode mode : kAllModes)
    EXPECT_EQ(*ParseSimdMode(SimdModeName(mode)), mode);
}

TEST(SimdDispatchTest, ResolveNeverReturnsAutoAndHonorsScalar) {
  for (const SimdMode mode : kAllModes)
    EXPECT_NE(ResolveSimdMode(mode), SimdMode::kAuto);
  // Scalar is always available, so requesting it must never be upgraded.
  EXPECT_EQ(ResolveSimdMode(SimdMode::kScalar), SimdMode::kScalar);
  // A resolved request never exceeds what the CPU supports.
  EXPECT_LE(static_cast<int>(ResolveSimdMode(SimdMode::kAvx2)),
            static_cast<int>(DetectCpuSimd()));
}

TEST(FeatureStoreTest, EdgeCaseShapesMatchGoldenBitwise) {
  // Candidate counts around the block width: this set has 13 users, so the
  // store runs one full 8-lane block plus a 5-lane remainder.
  std::vector<FakeUser> candidates;
  // 0: everything empty (all-zero norms, no attributes).
  candidates.push_back({});
  // 1: degree-only user.
  candidates.push_back({3.0, 7.5, {}, {}, {}, {}});
  // 2: length-1 vectors.
  candidates.push_back({1.0, 1.0, {2.0}, {1.0}, {0.5}, {{4, 2.0}}});
  // 3: odd lengths, attribute ids overlapping the queries'.
  candidates.push_back(
      {5.0, 9.0, {3.0, 1.0, 1.0}, {1.0, 2.0, 3.0, 4.0, 5.0},
       {0.5, 0.25, 0.125}, {{1, 3.0}, {4, 1.0}, {9, 2.0}}});
  // 4: all-zero vectors of nonzero length (zero norms with data present).
  candidates.push_back(
      {0.0, 0.0, {0.0, 0.0}, {0.0, 0.0, 0.0}, {0.0}, {{2, 5.0}}});
  // 5: longer hop vectors than any query (query side zero-padded).
  candidates.push_back({2.0, 2.0, {1.0}, {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0},
                        {0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.25},
                        {{0, 1.0}, {7, 4.0}}});
  // 6: non-integral (IDF-like) weights — forces the merge path store-wide.
  candidates.push_back(
      {4.0, 4.5, {2.0, 2.0}, {1.0, 3.0}, {0.5, 1.5},
       {{1, 0.69314718055994531}, {5, 2.3025850929940457}}});
  // 7-12: fill past one block with varying shapes.
  for (int i = 0; i < 6; ++i) {
    FakeUser u;
    u.degree = static_cast<double>(i);
    u.weighted_degree = 0.5 * static_cast<double>(i);
    for (int j = 0; j <= i; ++j) {
      u.ncs.push_back(static_cast<double>(i - j));
      u.hop.push_back(static_cast<double>(1 + ((i + j) % 4)));
      u.weighted_hop.push_back(1.0 / static_cast<double>(1 + j));
    }
    if (i % 3 != 0) u.attributes = {{i, 1.0 + i}, {2 * i + 3, 2.0}};
    candidates.push_back(std::move(u));
  }

  std::vector<FakeUser> queries;
  // Empty query; degree-only; typical; all-zero vectors; hop length
  // mismatching the store stride in both directions.
  queries.push_back({});
  queries.push_back({6.0, 2.0, {}, {}, {}, {{4, 2.0}, {9, 1.0}}});
  queries.push_back({3.0, 4.0, {2.0, 1.0}, {1.0, 2.0, 2.0},
                     {0.5, 0.5}, {{1, 1.0}, {2, 2.0}, {7, 3.0}}});
  queries.push_back({0.0, 0.0, {0.0}, {0.0, 0.0}, {0.0}, {}});
  queries.push_back({2.0, 2.0, {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0},
                     {2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0},
                     {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0},
                     {{0, 2.0}, {5, 0.5}}});

  ExpectStoreMatchesGolden(queries, candidates, SimilarityConfig{});
}

TEST(FeatureStoreTest, CandidateCountsAroundBlockWidth) {
  // 0, 1, 7, 8, 9, 16, 19 candidates: empty store, single partial block,
  // exact blocks, and non-multiple-of-8 remainders.
  for (const int n : {0, 1, 7, 8, 9, 16, 19}) {
    SCOPED_TRACE("candidates=" + std::to_string(n));
    std::vector<FakeUser> candidates;
    for (int i = 0; i < n; ++i) {
      FakeUser u;
      u.degree = static_cast<double>(i % 5);
      u.weighted_degree = 1.5 * static_cast<double>(i % 3);
      for (int j = 0; j < i % 4; ++j) u.ncs.push_back(1.0 + j);
      for (int j = 0; j < 3; ++j)
        u.hop.push_back(static_cast<double>((i * 7 + j) % 5));
      for (int j = 0; j < 3; ++j) u.weighted_hop.push_back(0.25 * (j + i % 2));
      if (i % 2 == 0) u.attributes = {{i % 6, 1.0}, {10 + i, 3.0}};
      candidates.push_back(std::move(u));
    }
    std::vector<FakeUser> queries;
    queries.push_back({2.0, 3.0, {1.0, 2.0}, {1.0, 1.0, 2.0},
                       {0.25, 0.5, 0.25}, {{2, 1.0}, {12, 2.0}}});
    ExpectStoreMatchesGolden(queries, candidates, SimilarityConfig{});
  }
}

struct Scenario {
  UdaGraph anonymized;
  UdaGraph auxiliary;
};

Scenario MakeScenario(int num_users, uint64_t seed) {
  ForumConfig config;
  config.num_users = num_users;
  config.seed = seed;
  config.style.vocabulary_size = 300;
  config.post_count_exponent = 1.2;
  config.max_posts_per_user = 16;
  auto forum = GenerateForum(config);
  EXPECT_TRUE(forum.ok());
  auto split = MakeClosedWorldScenario(forum->dataset, 0.5, 5);
  EXPECT_TRUE(split.ok());
  return {BuildUdaGraph(split->anonymized), BuildUdaGraph(split->auxiliary)};
}

TEST(FeatureStoreTest, GeneratedForumMatchesGoldenForEveryModeAndIdf) {
  const Scenario s = MakeScenario(60, 913);
  for (const bool idf : {false, true}) {
    SCOPED_TRACE(idf ? "idf=on" : "idf=off");
    SimilarityConfig sim;
    sim.idf_weight_attributes = idf;
    auto index = CandidateIndex::Build(s.auxiliary, sim);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    const auto queries = index->ComputeQueryFeatures(s.anonymized, 1);
    // Golden row: per-pair scores through the per-pair kernel.
    for (size_t u = 0; u < queries.size(); u += 7) {
      std::vector<double> golden(index->data().users.size());
      for (size_t v = 0; v < golden.size(); ++v)
        golden[v] = index->ExactScore(queries[u], static_cast<int>(v));
      for (const SimdMode mode : kAllModes) {
        SCOPED_TRACE(std::string("simd=") + SimdModeName(mode));
        index->set_simd_mode(mode);
        std::vector<double> row(golden.size());
        index->ExactRowTo(queries[u], row.data());
        ASSERT_EQ(row.size(), golden.size());
        for (size_t v = 0; v < golden.size(); ++v)
          EXPECT_TRUE(BitsEqual(golden[v], row[v]))
              << "u=" << u << " v=" << v;
      }
    }
  }
}

TEST(FeatureStoreTest, ComputeMatrixBitwiseStableAcrossModesAndThreads) {
  const Scenario s = MakeScenario(48, 4242);
  SimilarityConfig base;
  base.num_threads = 1;
  base.simd = SimdMode::kScalar;
  const auto golden =
      StructuralSimilarity(s.anonymized, s.auxiliary, base).ComputeMatrix();
  // The per-pair accessor must agree with the batched matrix.
  {
    const StructuralSimilarity sim(s.anonymized, s.auxiliary, base);
    for (size_t u = 0; u < golden.size(); u += 5)
      for (size_t v = 0; v < golden[u].size(); v += 3)
        EXPECT_TRUE(BitsEqual(
            sim.Combined(static_cast<NodeId>(u), static_cast<NodeId>(v)),
            golden[u][v]));
  }
  for (const SimdMode mode : kAllModes) {
    SCOPED_TRACE(std::string("simd=") + SimdModeName(mode));
    for (const int threads : {1, 4, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      SimilarityConfig config = base;
      config.simd = mode;
      config.num_threads = threads;
      const auto matrix =
          StructuralSimilarity(s.anonymized, s.auxiliary, config)
              .ComputeMatrix();
      ASSERT_EQ(matrix.size(), golden.size());
      for (size_t u = 0; u < golden.size(); ++u) {
        ASSERT_EQ(matrix[u].size(), golden[u].size());
        for (size_t v = 0; v < golden[u].size(); ++v)
          EXPECT_TRUE(BitsEqual(golden[u][v], matrix[u][v]))
              << "u=" << u << " v=" << v;
      }
    }
  }
}

}  // namespace
}  // namespace dehealth
