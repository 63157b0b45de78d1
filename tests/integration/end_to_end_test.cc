// Integration tests spanning datagen -> stylo -> graph -> core -> theory:
// the full De-Health attack on generated forums, plus cross-module
// consistency properties.

#include <gtest/gtest.h>

#include "core/de_health.h"
#include "core/evaluation.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "graph/community.h"
#include "theory/bounds.h"

namespace dehealth {
namespace {

TEST(EndToEndTest, WebMdPipelineClosedWorld) {
  auto forum = GenerateForum(WebMdLikeConfig(150, 101));
  ASSERT_TRUE(forum.ok());
  auto scenario = MakeClosedWorldScenario(forum->dataset, 0.5, 3);
  ASSERT_TRUE(scenario.ok());
  const UdaGraph anon = BuildUdaGraph(scenario->anonymized);
  const UdaGraph aux = BuildUdaGraph(scenario->auxiliary);

  DeHealthConfig config;
  config.top_k = 10;
  config.refined.learner = LearnerKind::kNearestCentroid;
  auto result = DeHealth(config).Run(anon, aux);
  ASSERT_TRUE(result.ok());

  const double top10 = TopKSuccessRate(result->candidates, scenario->truth);
  const double accuracy =
      EvaluateRefinedDa(result->refined, scenario->truth).Accuracy();
  // On WebMD-shaped data (few posts per user) the attack still works far
  // above the 1/150 random baseline.
  EXPECT_GT(top10, 0.25);
  EXPECT_GT(accuracy, 0.1);
  EXPECT_LE(accuracy, top10 + 1e-12);
}

TEST(EndToEndTest, MoreAuxiliaryDataHelpsTopK) {
  // The paper's Fig. 3 observation at dataset scale: with only 10% of the
  // data anonymized, the anonymized graph is too sparse and Top-K DA
  // degrades relative to the 50/50 split.
  auto forum = GenerateForum(WebMdLikeConfig(200, 103));
  ASSERT_TRUE(forum.ok());
  double success[2] = {0.0, 0.0};
  const double fractions[2] = {0.5, 0.9};
  for (int i = 0; i < 2; ++i) {
    auto scenario = MakeClosedWorldScenario(forum->dataset, fractions[i], 5);
    ASSERT_TRUE(scenario.ok());
    const UdaGraph anon = BuildUdaGraph(scenario->anonymized);
    const UdaGraph aux = BuildUdaGraph(scenario->auxiliary);
    const StructuralSimilarity sim(anon, aux, {});
    auto candidates = SelectTopKCandidates(sim.ComputeMatrix(), 5);
    ASSERT_TRUE(candidates.ok());
    success[i] = TopKSuccessRate(*candidates, scenario->truth);
  }
  // 50% split keeps more anonymized signal than 90% aux / 10% anon.
  EXPECT_GE(success[0], success[1] - 0.05);
}

TEST(EndToEndTest, OpenWorldHigherOverlapHelps) {
  // Fig. 5 trend, averaged over seeds to damp small-sample noise.
  auto forum = GenerateForum(HealthBoardsLikeConfig(150, 107));
  ASSERT_TRUE(forum.ok());
  double success_50 = 0.0, success_90 = 0.0;
  const uint64_t seeds[] = {11, 12, 13};
  for (uint64_t seed : seeds) {
    for (double ratio : {0.5, 0.9}) {
      auto scenario = MakeOpenWorldScenario(forum->dataset, ratio, seed);
      ASSERT_TRUE(scenario.ok());
      const UdaGraph anon = BuildUdaGraph(scenario->anonymized);
      const UdaGraph aux = BuildUdaGraph(scenario->auxiliary);
      const StructuralSimilarity sim(anon, aux, {});
      auto candidates = SelectTopKCandidates(sim.ComputeMatrix(), 10);
      ASSERT_TRUE(candidates.ok());
      const double rate = TopKSuccessRate(*candidates, scenario->truth);
      (ratio == 0.5 ? success_50 : success_90) += rate / 3.0;
    }
  }
  EXPECT_GE(success_90, success_50 - 0.05);
}

TEST(EndToEndTest, CommunityStructureShrinksUnderDegreeFilter) {
  // Fig. 8: raising the degree cutoff shrinks the active graph.
  auto forum = GenerateForum(HealthBoardsLikeConfig(300, 109));
  ASSERT_TRUE(forum.ok());
  const CorrelationGraph graph = BuildCorrelationGraph(forum->dataset);
  int prev_active = graph.num_nodes() + 1;
  for (int cutoff : {0, 11, 21, 31}) {
    Rng rng(1);
    auto summary = SummarizeCommunityStructure(graph, cutoff, rng);
    EXPECT_LE(summary.active_nodes, prev_active);
    prev_active = summary.active_nodes;
  }
}

TEST(EndToEndTest, AttributeSimilarityGapSupportsTheoremOne) {
  // Measure the empirical λ (true pairs) vs λ̄ (wrong pairs) of the
  // attribute-similarity "distance" and confirm the theory module's
  // parameters admit a nonvacuous bound exactly when a gap exists.
  auto forum = GenerateForum(WebMdLikeConfig(100, 113));
  ASSERT_TRUE(forum.ok());
  auto scenario = MakeClosedWorldScenario(forum->dataset, 0.5, 7);
  ASSERT_TRUE(scenario.ok());
  const UdaGraph anon = BuildUdaGraph(scenario->anonymized);
  const UdaGraph aux = BuildUdaGraph(scenario->auxiliary);
  // c1 = c2 = 0, c3 = 1: Combined() is exactly s^a.
  SimilarityConfig attr_only;
  attr_only.c1 = 0.0;
  attr_only.c2 = 0.0;
  attr_only.c3 = 1.0;
  const StructuralSimilarity sim(anon, aux, attr_only);

  double true_sum = 0.0, wrong_sum = 0.0;
  int true_count = 0, wrong_count = 0;
  for (int u = 0; u < anon.num_users(); ++u) {
    for (int v = 0; v < aux.num_users(); ++v) {
      const double s = sim.Combined(u, v);
      if (scenario->truth[static_cast<size_t>(u)] == v) {
        true_sum += s;
        ++true_count;
      } else {
        wrong_sum += s;
        ++wrong_count;
      }
    }
  }
  ASSERT_GT(true_count, 0);
  const double lambda_true = true_sum / true_count;
  const double lambda_wrong = wrong_sum / wrong_count;
  // Identity signal exists: same-author similarity exceeds cross-author.
  EXPECT_GT(lambda_true, lambda_wrong);

  DaParameters params;
  // Similarity is a *similarity*; treat distance = 2 - s, swapping means.
  params.lambda_correct = 2.0 - lambda_true;
  params.lambda_incorrect = 2.0 - lambda_wrong;
  params.theta_correct = 2.0;
  params.theta_incorrect = 2.0;
  ASSERT_TRUE(params.Validate().ok());
  EXPECT_GE(ExactDaPairLowerBound(params), 0.0);
}

}  // namespace
}  // namespace dehealth
