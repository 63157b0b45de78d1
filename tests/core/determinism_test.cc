// Proves the threading contract from DESIGN.md: every parallel stage of
// the DA pipeline produces bitwise-identical results for num_threads = 1
// and num_threads = 8 on the same generated forum.

#include <gtest/gtest.h>

#include "core/de_health.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "graph/landmarks.h"
#include "theory/monte_carlo.h"

namespace dehealth {
namespace {

/// One small closed-world scenario shared by all determinism checks.
class DeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ForumConfig config;
    config.num_users = 60;
    config.seed = 77;
    config.style.vocabulary_size = 400;
    config.post_count_exponent = 1.2;
    config.max_posts_per_user = 24;
    auto forum = GenerateForum(config);
    ASSERT_TRUE(forum.ok());
    auto scenario = MakeClosedWorldScenario(forum->dataset, 0.5, 5);
    ASSERT_TRUE(scenario.ok());
    anon_ = new UdaGraph(BuildUdaGraph(scenario->anonymized));
    aux_ = new UdaGraph(BuildUdaGraph(scenario->auxiliary));
  }

  static std::vector<std::vector<double>> Matrix(int num_threads) {
    SimilarityConfig config;
    config.num_threads = num_threads;
    return StructuralSimilarity(*anon_, *aux_, config).ComputeMatrix();
  }

  static UdaGraph* anon_;
  static UdaGraph* aux_;
};

UdaGraph* DeterminismTest::anon_ = nullptr;
UdaGraph* DeterminismTest::aux_ = nullptr;

TEST_F(DeterminismTest, SimilarityMatrixBitwiseIdenticalAcrossThreadCounts) {
  const auto serial = Matrix(1);
  const auto parallel = Matrix(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t u = 0; u < serial.size(); ++u)
    ASSERT_EQ(serial[u], parallel[u]) << "row " << u;  // bitwise ==
}

TEST_F(DeterminismTest, LandmarkVectorsIdenticalAcrossThreadCounts) {
  const LandmarkIndex one(anon_->graph, 10, 1);
  const LandmarkIndex eight(anon_->graph, 10, 8);
  ASSERT_EQ(one.landmarks(), eight.landmarks());
  for (NodeId u = 0; u < anon_->num_users(); ++u) {
    ASSERT_EQ(one.HopVector(u), eight.HopVector(u)) << "user " << u;
    ASSERT_EQ(one.WeightedVector(u), eight.WeightedVector(u)) << "user " << u;
  }
}

TEST_F(DeterminismTest, CandidateSetsIdenticalAcrossThreadCounts) {
  const auto matrix = Matrix(1);
  auto one = SelectTopKCandidates(matrix, 7, CandidateSelection::kDirect, 1);
  auto eight =
      SelectTopKCandidates(matrix, 7, CandidateSelection::kDirect, 8);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(eight.ok());
  EXPECT_EQ(*one, *eight);
}

TEST_F(DeterminismTest, RefinedDaPredictionsIdenticalAcrossThreadCounts) {
  const auto matrix = Matrix(1);
  auto candidates = SelectTopKCandidates(matrix, 5);
  ASSERT_TRUE(candidates.ok());
  // False addition exercises the per-user decoy RNG streams — the part
  // that used to consume one sequential stream in iteration order.
  RefinedDaConfig config;
  config.learner = LearnerKind::kNearestCentroid;
  config.verification = VerificationScheme::kFalseAddition;
  config.false_addition_count = 5;

  config.num_threads = 1;
  auto one = RunRefinedDa(*anon_, *aux_, *candidates, nullptr,
                          DenseCandidateSource(matrix), config);
  config.num_threads = 8;
  auto eight = RunRefinedDa(*anon_, *aux_, *candidates, nullptr,
                            DenseCandidateSource(matrix), config);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(eight.ok());
  EXPECT_EQ(one->predictions, eight->predictions);
  EXPECT_EQ(one->num_rejected, eight->num_rejected);
}

TEST_F(DeterminismTest, SharedRefinedDaIdenticalAcrossThreadCounts) {
  const auto matrix = Matrix(1);
  std::vector<int> all(static_cast<size_t>(aux_->num_users()));
  for (size_t v = 0; v < all.size(); ++v) all[v] = static_cast<int>(v);
  const CandidateSets uniform(static_cast<size_t>(anon_->num_users()), all);
  RefinedDaConfig config;
  config.learner = LearnerKind::kNearestCentroid;

  config.num_threads = 1;
  auto one = RunRefinedDaShared(*anon_, *aux_, uniform,
                                DenseCandidateSource(matrix), config);
  config.num_threads = 8;
  auto eight = RunRefinedDaShared(*anon_, *aux_, uniform,
                                  DenseCandidateSource(matrix), config);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(eight.ok());
  EXPECT_EQ(one->predictions, eight->predictions);
  EXPECT_EQ(one->num_rejected, eight->num_rejected);
}

TEST_F(DeterminismTest, EndToEndPipelineIdenticalAcrossThreadCounts) {
  DeHealthConfig config;
  config.top_k = 5;
  config.refined.learner = LearnerKind::kNearestCentroid;

  config.num_threads = 1;
  auto one = DeHealth(config).Run(*anon_, *aux_);
  config.num_threads = 8;
  auto eight = DeHealth(config).Run(*anon_, *aux_);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(eight.ok());
  EXPECT_EQ(one->similarity, eight->similarity);
  EXPECT_EQ(one->candidates, eight->candidates);
  EXPECT_EQ(one->refined.predictions, eight->refined.predictions);
}

TEST(MonteCarloDeterminismTest, RatesIdenticalAcrossThreadCounts) {
  MonteCarloConfig c;
  c.params.lambda_correct = 0.2;
  c.params.lambda_incorrect = 0.8;
  c.params.theta_correct = 0.3;
  c.params.theta_incorrect = 0.3;
  c.n2 = 40;
  c.trials = 500;

  c.num_threads = 1;
  auto exact_one = RunExactDaMonteCarlo(c);
  auto topk_one = RunTopKDaMonteCarlo(c, 5);
  auto group_one = RunGroupDaMonteCarlo(c, 3);
  c.num_threads = 8;
  auto exact_eight = RunExactDaMonteCarlo(c);
  auto topk_eight = RunTopKDaMonteCarlo(c, 5);
  auto group_eight = RunGroupDaMonteCarlo(c, 3);

  ASSERT_TRUE(exact_one.ok());
  ASSERT_TRUE(exact_eight.ok());
  EXPECT_EQ(exact_one->exact_success_rate, exact_eight->exact_success_rate);
  EXPECT_EQ(exact_one->pair_success_rate, exact_eight->pair_success_rate);
  ASSERT_TRUE(topk_one.ok());
  ASSERT_TRUE(topk_eight.ok());
  EXPECT_EQ(*topk_one, *topk_eight);
  ASSERT_TRUE(group_one.ok());
  ASSERT_TRUE(group_eight.ok());
  EXPECT_EQ(*group_one, *group_eight);
}

TEST(MixSeedTest, DistinctStreamsAndStableValues) {
  EXPECT_NE(MixSeed(7, 0), MixSeed(7, 1));
  EXPECT_NE(MixSeed(7, 0), MixSeed(8, 0));
  EXPECT_EQ(MixSeed(7, 3), MixSeed(7, 3));
  // Per-user streams must differ from the base seed's own stream.
  EXPECT_NE(MixSeed(7, 0), 7u);
}

}  // namespace
}  // namespace dehealth
