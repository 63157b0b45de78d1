// Golden exact-equivalence suite for the candidate index (src/index/):
// indexed retrieval must be byte-identical to the dense-matrix path on
// generated forums of several sizes, for 1 and N threads, with and without
// IDF attribute weighting — the determinism contract in DESIGN.md
// "Candidate index".

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "core/de_health.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "index/candidate_index.h"
#include "index/indexed_source.h"
#include "index/pipeline.h"
#include "index/snapshot.h"

namespace dehealth {
namespace {

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

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

std::vector<std::vector<double>> DenseMatrix(const Scenario& s,
                                             const SimilarityConfig& config) {
  return StructuralSimilarity(s.anonymized, s.auxiliary, config)
      .ComputeMatrix();
}

TEST(IndexEquivalenceTest, TopKMatchesDenseAcrossSizesAndThreads) {
  for (const int num_users : {16, 60, 120}) {
    SCOPED_TRACE("num_users=" + std::to_string(num_users));
    const Scenario s = MakeScenario(num_users, 101 + num_users);
    for (const bool idf : {false, true}) {
      SCOPED_TRACE(idf ? "idf=on" : "idf=off");
      SimilarityConfig sim;
      sim.idf_weight_attributes = idf;
      const auto matrix = DenseMatrix(s, sim);
      auto index = LoadOrBuildIndex("", s.auxiliary, sim);
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      const IndexedCandidateSource source(s.anonymized, *index);
      for (const int k : {1, 5, 17}) {
        SCOPED_TRACE("k=" + std::to_string(k));
        auto dense = SelectTopKCandidates(matrix, k);
        ASSERT_TRUE(dense.ok());
        for (const int threads : {1, 8}) {
          auto indexed = source.TopK(k, threads);
          ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
          EXPECT_EQ(*indexed, *dense) << "threads=" << threads;
        }
      }
    }
  }
}

TEST(IndexEquivalenceTest, ScoreAndRowAreBitwiseIdenticalToDense) {
  const Scenario s = MakeScenario(40, 7);
  SimilarityConfig sim;
  sim.idf_weight_attributes = true;
  const auto matrix = DenseMatrix(s, sim);
  auto index = LoadOrBuildIndex("", s.auxiliary, sim);
  ASSERT_TRUE(index.ok());
  const IndexedCandidateSource source(s.anonymized, *index);
  ASSERT_EQ(source.num_anonymized(), static_cast<int>(matrix.size()));
  std::vector<double> scratch;
  for (size_t u = 0; u < matrix.size(); ++u) {
    const std::vector<double>& row =
        source.Row(static_cast<NodeId>(u), &scratch);
    ASSERT_EQ(row, matrix[u]) << "row " << u;  // bitwise ==
    for (size_t v = 0; v < matrix[u].size(); v += 7)
      ASSERT_EQ(
          source.Score(static_cast<NodeId>(u), static_cast<NodeId>(v)),
          matrix[u][v]);
  }
}

TEST(IndexEquivalenceTest, KLargerThanAuxiliarySideMatchesDense) {
  const Scenario s = MakeScenario(20, 3);
  const SimilarityConfig sim;
  const auto matrix = DenseMatrix(s, sim);
  const int n2 = s.auxiliary.num_users();
  auto index = LoadOrBuildIndex("", s.auxiliary, sim);
  ASSERT_TRUE(index.ok());
  const IndexedCandidateSource source(s.anonymized, *index);
  auto dense = SelectTopKCandidates(matrix, n2 + 50);
  auto indexed = source.TopK(n2 + 50, 1);
  ASSERT_TRUE(dense.ok());
  ASSERT_TRUE(indexed.ok());
  EXPECT_EQ(*indexed, *dense);
}

TEST(IndexEquivalenceTest, RejectsInvalidK) {
  const Scenario s = MakeScenario(16, 9);
  auto index = LoadOrBuildIndex("", s.auxiliary, SimilarityConfig{});
  ASSERT_TRUE(index.ok());
  const IndexedCandidateSource source(s.anonymized, *index);
  auto result = source.TopK(0, 1);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(IndexPipelineTest, EndToEndAttackMatchesDensePath) {
  const Scenario s = MakeScenario(60, 21);
  DeHealthConfig config;
  config.top_k = 5;
  config.num_threads = 2;
  config.enable_filtering = true;
  config.refined.learner = LearnerKind::kNearestCentroid;
  config.refined.verification = VerificationScheme::kMeanVerification;

  auto dense = DeHealth(config).Run(s.anonymized, s.auxiliary);
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();
  auto indexed = RunDeHealthAttack(s.anonymized, s.auxiliary, config);
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();

  EXPECT_EQ(indexed->candidates, dense->candidates);
  EXPECT_EQ(indexed->rejected, dense->rejected);
  EXPECT_EQ(indexed->refined.predictions, dense->refined.predictions);
  EXPECT_EQ(indexed->refined.num_rejected, dense->refined.num_rejected);
  // The pipeline never materializes the matrix.
  EXPECT_TRUE(indexed->similarity.empty());
  EXPECT_FALSE(dense->similarity.empty());
}

TEST(IndexPipelineTest, GraphMatchingSelectionRequiresDenseMatrix) {
  // Graph matching is global: the pipeline forms the matrix from the
  // index's rows for that phase alone, and answers what the dense run
  // answers.
  const Scenario s = MakeScenario(16, 5);
  DeHealthConfig config;
  config.top_k = 2;
  config.selection = CandidateSelection::kGraphMatching;
  config.enable_filtering = true;
  config.refined.learner = LearnerKind::kNearestCentroid;
  auto dense = DeHealth(config).Run(s.anonymized, s.auxiliary);
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();
  auto indexed = RunDeHealthAttack(s.anonymized, s.auxiliary, config);
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  EXPECT_EQ(indexed->candidates, dense->candidates);
  EXPECT_EQ(indexed->rejected, dense->rejected);
  EXPECT_EQ(indexed->refined.predictions, dense->refined.predictions);
}

TEST(IndexPipelineTest, IndexedResultsIdenticalAcrossThreadCounts) {
  const Scenario s = MakeScenario(60, 31);
  DeHealthConfig config;
  config.top_k = 5;
  config.refined.learner = LearnerKind::kNearestCentroid;
  config.num_threads = 1;
  auto one = RunDeHealthAttack(s.anonymized, s.auxiliary, config);
  config.num_threads = 8;
  auto eight = RunDeHealthAttack(s.anonymized, s.auxiliary, config);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(eight.ok());
  EXPECT_EQ(one->candidates, eight->candidates);
  EXPECT_EQ(one->refined.predictions, eight->refined.predictions);
}

TEST(IndexPipelineTest, TopKRangeEqualsRowMajorFold) {
  // The range the Top-K pass hands out is bitwise the serial row-major
  // min/max over the dense matrix, for any thread count and batch.
  const Scenario s = MakeScenario(60, 13);
  for (const bool idf : {false, true}) {
    SCOPED_TRACE(idf ? "idf=on" : "idf=off");
    SimilarityConfig sim;
    sim.idf_weight_attributes = idf;
    const auto matrix = DenseMatrix(s, sim);
    double s_min = std::numeric_limits<double>::infinity();
    double s_max = -std::numeric_limits<double>::infinity();
    for (const auto& row : matrix)
      for (const double score : row) {
        s_max = std::max(s_max, score);
        s_min = std::min(s_min, score);
      }
    auto index = LoadOrBuildIndex("", s.auxiliary, sim);
    ASSERT_TRUE(index.ok());
    const IndexedCandidateSource source(s.anonymized, *index);
    for (const int threads : {1, 3, 8}) {
      ScoreRange range;
      auto sets = source.TopK(4, threads, &range);
      ASSERT_TRUE(sets.ok());
      EXPECT_EQ(Bits(range.min), Bits(s_min)) << "threads=" << threads;
      EXPECT_EQ(Bits(range.max), Bits(s_max)) << "threads=" << threads;
    }
    // Two batches folded in user order give the same range.
    const int n1 = source.num_anonymized();
    std::vector<int> head, tail;
    for (int u = 0; u < n1; ++u) (u < n1 / 3 ? head : tail).push_back(u);
    ScoreRange head_range, tail_range;
    ASSERT_TRUE(source.TopKForUsers(head, 4, 2, &head_range).ok());
    ASSERT_TRUE(source.TopKForUsers(tail, 4, 2, &tail_range).ok());
    head_range.Add(tail_range);
    EXPECT_EQ(Bits(head_range.min), Bits(s_min));
    EXPECT_EQ(Bits(head_range.max), Bits(s_max));
  }
}

}  // namespace
}  // namespace dehealth
