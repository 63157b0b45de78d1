// Equivalence suite for the blocked SoA feature store and its batched
// score kernel: every SIMD tier (scalar, AVX2, auto) must be
// BITWISE-identical to the golden per-pair CombinedStructuralScore — on
// synthetic edge-case features (empty/odd/non-multiple-of-8 vector
// lengths, mismatched hop lengths, all-zero norms, empty attribute lists,
// non-integral weights), on the attribute walk's edge cases (zero weights,
// query ids outside the block's, disjoint blocks and lanes, the
// exact-integer boundary) and on generated forums, across 1/4/8 threads.

#include "core/feature_store.h"

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "core/similarity.h"
#include "core/simd_dispatch.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "index/candidate_index.h"

namespace dehealth {
namespace {

const SimdMode kAllModes[] = {SimdMode::kScalar, SimdMode::kAvx2,
                              SimdMode::kAuto};

::testing::AssertionResult BitsEqual(double expected, double actual) {
  if (std::bit_cast<uint64_t>(expected) == std::bit_cast<uint64_t>(actual))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "expected " << expected << " (0x" << std::hex
         << std::bit_cast<uint64_t>(expected) << "), got " << actual << " (0x"
         << std::bit_cast<uint64_t>(actual) << std::dec << ")";
}

/// Asserts ScoreRow reproduces the golden kernel bitwise for every SIMD
/// tier, with the store built and the rows scored on 1, 4 and 8 threads.
void ExpectStoreMatchesGolden(const std::vector<UserFeatures>& queries,
                              const std::vector<UserFeatures>& candidates,
                              const SimilarityConfig& base_config) {
  const size_t n = candidates.size();
  std::vector<double> golden(queries.size() * n);
  for (size_t qi = 0; qi < queries.size(); ++qi)
    for (size_t v = 0; v < n; ++v)
      golden[qi * n + v] =
          CombinedStructuralScore(base_config, queries[qi], candidates[v]);

  for (const int threads : {1, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const FeatureStore store = FeatureStore::Build(candidates, threads);
    ASSERT_EQ(store.num_users(), static_cast<int>(n));
    for (const SimdMode mode : kAllModes) {
      SCOPED_TRACE(std::string("simd=") + SimdModeName(mode));
      SimilarityConfig config = base_config;
      config.simd = mode;
      std::vector<double> rows(queries.size() * n, -1.0);
      ParallelFor(
          0, static_cast<int64_t>(queries.size()),
          [&](int64_t qi) {
            const auto q = static_cast<size_t>(qi);
            store.ScoreRow(config, store.MakeQuery(queries[q]),
                           rows.data() + q * n);
          },
          threads);
      for (size_t qi = 0; qi < queries.size(); ++qi)
        for (size_t v = 0; v < n; ++v)
          EXPECT_TRUE(BitsEqual(golden[qi * n + v], rows[qi * n + v]))
              << "query " << qi << ", candidate " << v;
    }
  }
}

TEST(SimdDispatchTest, ParseAndNames) {
  EXPECT_EQ(*ParseSimdMode("auto"), SimdMode::kAuto);
  EXPECT_EQ(*ParseSimdMode("scalar"), SimdMode::kScalar);
  EXPECT_EQ(*ParseSimdMode("avx2"), SimdMode::kAvx2);
  EXPECT_FALSE(ParseSimdMode("sse2").ok());  // retired tier
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
  std::vector<UserFeatures> candidates;
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
  // 6: non-integral (IDF-like) weights — the general walk store-wide.
  candidates.push_back(
      {4.0, 4.5, {2.0, 2.0}, {1.0, 3.0}, {0.5, 1.5},
       {{1, 0.69314718055994531}, {5, 2.3025850929940457}}});
  // 7-12: fill past one block with varying shapes.
  for (int i = 0; i < 6; ++i) {
    UserFeatures u;
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

  std::vector<UserFeatures> queries;
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
    std::vector<UserFeatures> candidates;
    for (int i = 0; i < n; ++i) {
      UserFeatures u;
      u.degree = static_cast<double>(i % 5);
      u.weighted_degree = 1.5 * static_cast<double>(i % 3);
      for (int j = 0; j < i % 4; ++j) u.ncs.push_back(1.0 + j);
      for (int j = 0; j < 3; ++j)
        u.hop.push_back(static_cast<double>((i * 7 + j) % 5));
      for (int j = 0; j < 3; ++j) u.weighted_hop.push_back(0.25 * (j + i % 2));
      if (i % 2 == 0) u.attributes = {{i % 6, 1.0}, {10 + i, 3.0}};
      candidates.push_back(std::move(u));
    }
    std::vector<UserFeatures> queries;
    queries.push_back({2.0, 3.0, {1.0, 2.0}, {1.0, 1.0, 2.0},
                       {0.25, 0.5, 0.25}, {{2, 1.0}, {12, 2.0}}});
    ExpectStoreMatchesGolden(queries, candidates, SimilarityConfig{});
  }
}

/// A user with no graph features and the given attribute list.
UserFeatures WithAttributes(std::vector<std::pair<int, double>> attributes) {
  UserFeatures u;
  u.degree = 1.0;
  u.weighted_degree = 1.0;
  u.hop = {1.0};
  u.weighted_hop = {1.0};
  u.attributes = std::move(attributes);
  return u;
}

TEST(FeatureStoreTest, AttributeWalkEdgeCasesMatchGoldenBitwise) {
  // Two 8-lane blocks and a 3-lane remainder. Ids run from 40 to 1200 so
  // that query ids fall below and above every stored id.
  for (const bool integral : {true, false}) {
    SCOPED_TRACE(integral ? "exact-integer walk" : "general walk");
    // IDF-like weights take the general (`block | query`) walk; integer
    // weights the exact (`block & query`) one.
    const auto w = [&](double base) {
      return integral ? base : base * 0.6931471805599453;
    };
    std::vector<UserFeatures> candidates;
    // Block 0: lanes whose ids do not overlap, none shared with query 1;
    // lane 2 holds an id whose weight is exactly +0.0 (an attribute every
    // auxiliary user has scales by IDF log(1) = 0).
    for (int lane = 0; lane < 8; ++lane) {
      std::vector<std::pair<int, double>> attributes;
      for (int k = 0; k < 3; ++k)
        attributes.emplace_back(40 + 10 * lane + k, w(1.0 + lane + k));
      if (lane == 2) attributes.emplace_back(130, 0.0);
      candidates.push_back(WithAttributes(std::move(attributes)));
    }
    // Block 1: overlapping lanes around the shared ids 500..507, one empty
    // lane, and a lane with a +0.0 weight on an id the query also holds.
    for (int lane = 0; lane < 8; ++lane) {
      std::vector<std::pair<int, double>> attributes;
      if (lane == 3) {
        candidates.push_back(WithAttributes({}));
        continue;
      }
      for (int k = lane; k < 8; ++k)
        attributes.emplace_back(500 + k, w(2.0 + k));
      if (lane == 5) attributes.emplace_back(900, 0.0);
      attributes.emplace_back(1200, w(3.0));
      candidates.push_back(WithAttributes(std::move(attributes)));
    }
    // Remainder block: one id each.
    for (int lane = 0; lane < 3; ++lane)
      candidates.push_back(WithAttributes({{600 + lane, w(1.0)}}));

    std::vector<UserFeatures> queries;
    // Ids below and above every stored id, plus shared ones.
    queries.push_back(WithAttributes({{0, w(2.0)},
                                      {3, w(1.0)},
                                      {41, w(1.0)},
                                      {503, w(4.0)},
                                      {900, w(2.0)},
                                      {1200, w(3.0)},
                                      {1500, w(5.0)},
                                      {1757, w(1.0)}}));
    // Shares no id with block 0 (or with any stored user).
    queries.push_back(WithAttributes({{1, w(1.0)}, {1700, w(2.0)}}));
    // Only zero weights: the weighted union is 0 against some lanes.
    queries.push_back(WithAttributes({{130, 0.0}, {900, 0.0}}));
    // No attributes at all.
    queries.push_back(WithAttributes({}));

    const FeatureStore store = FeatureStore::Build(candidates);
    EXPECT_EQ(store.attrs_exact(), integral);
    ExpectStoreMatchesGolden(queries, candidates, SimilarityConfig{});
  }
}

TEST(FeatureStoreTest, ExactIntegerBoundaryPicksTheWalkAndStaysBitwise) {
  constexpr double k2p26 = 67108864.0;
  const std::vector<UserFeatures> at_bound = {
      WithAttributes({{5, k2p26}, {9, 1.0}}), WithAttributes({{9, 3.0}})};
  // 2^26 is still an exact-integer weight: the `&` walk and the union from
  // the totals.
  {
    const FeatureStore store = FeatureStore::Build(at_bound);
    EXPECT_TRUE(store.attrs_exact());
    const UserFeatures query = WithAttributes({{5, k2p26}, {9, 2.0}});
    EXPECT_TRUE(store.MakeQuery(query).attrs_exact);
    ExpectStoreMatchesGolden({query}, at_bound, SimilarityConfig{});
  }
  // One past it — in the store or in the query — moves to the `|` walk, as
  // does an integer weight whose list total would pass 2^52.
  for (const double big : {k2p26 + 1.0, 4503599627370498.0}) {
    SCOPED_TRACE("weight=" + std::to_string(big));
    const std::vector<UserFeatures> past = {
        WithAttributes({{5, big}, {9, 1.0}}), WithAttributes({{9, 3.0}})};
    const FeatureStore store = FeatureStore::Build(past);
    EXPECT_FALSE(store.attrs_exact());
    const UserFeatures query = WithAttributes({{5, 2.0}, {9, 2.0}});
    ExpectStoreMatchesGolden({query}, past, SimilarityConfig{});

    const FeatureStore exact_store = FeatureStore::Build(at_bound);
    const UserFeatures big_query = WithAttributes({{5, big}, {9, 2.0}});
    EXPECT_FALSE(exact_store.MakeQuery(big_query).attrs_exact);
    ExpectStoreMatchesGolden({big_query}, at_bound, SimilarityConfig{});
  }
  // A store holding one non-integer weight sends an integer query to the
  // `|` walk too: here the union taken from the totals would round
  // differently from the merge's ordered sum.
  {
    const std::vector<UserFeatures> irrational = {WithAttributes(
        {{1, 0.3}, {3, 2.302585092994046}, {6, 0.7}, {7, 0.1}})};
    const FeatureStore store = FeatureStore::Build(irrational);
    const UserFeatures query = WithAttributes({{3, 2.0}});
    EXPECT_FALSE(store.MakeQuery(query).attrs_exact);
    ExpectStoreMatchesGolden({query}, irrational, SimilarityConfig{});
  }
}

TEST(FeatureStoreTest, CheckWalkableAttributesRejectsEachDefect) {
  EXPECT_TRUE(CheckWalkableAttributes({}, "t").ok());
  EXPECT_TRUE(
      CheckWalkableAttributes({{0, 0.0}, {1757, 2.5}}, "t").ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<std::pair<int, double>>> bad = {
      {{3, 1.0}, {3, 2.0}},  // duplicate id
      {{4, 1.0}, {3, 2.0}},  // descending
      {{-1, 1.0}},           // below the id space
      {{1758, 1.0}},         // past it
      {{3, -1.0}},           // negative
      {{3, nan}},
      {{3, inf}},
      {{3, -0.0}},
  };
  for (size_t i = 0; i < bad.size(); ++i) {
    const Status status = CheckWalkableAttributes(bad[i], "t");
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << "case " << i;
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
