#include "core/refined_da.h"

#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "core/evaluation.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"

namespace dehealth {
namespace {

/// Shared fixture: one small closed-world scenario with UDA graphs and a
/// similarity matrix, reused across tests (construction is the slow part).
class RefinedDaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ForumConfig config;
    config.num_users = 40;
    config.seed = 31;
    config.style.vocabulary_size = 400;
    // More posts per user so every user is splittable and trainable.
    config.post_count_exponent = 1.2;
    config.max_posts_per_user = 30;
    auto forum = GenerateForum(config);
    ASSERT_TRUE(forum.ok());
    auto scenario = MakeClosedWorldScenario(forum->dataset, 0.5, 5);
    ASSERT_TRUE(scenario.ok());
    scenario_ = new DaScenario(std::move(scenario).value());
    anon_ = new UdaGraph(BuildUdaGraph(scenario_->anonymized));
    aux_ = new UdaGraph(BuildUdaGraph(scenario_->auxiliary));
    StructuralSimilarity sim(*anon_, *aux_, {});
    similarity_ =
        new std::vector<std::vector<double>>(sim.ComputeMatrix());
    auto candidates = SelectTopKCandidates(*similarity_, 5);
    ASSERT_TRUE(candidates.ok());
    candidates_ = new CandidateSets(std::move(candidates).value());
  }

  static DaScenario* scenario_;
  static UdaGraph* anon_;
  static UdaGraph* aux_;
  static std::vector<std::vector<double>>* similarity_;
  static CandidateSets* candidates_;
};

DaScenario* RefinedDaTest::scenario_ = nullptr;
UdaGraph* RefinedDaTest::anon_ = nullptr;
UdaGraph* RefinedDaTest::aux_ = nullptr;
std::vector<std::vector<double>>* RefinedDaTest::similarity_ = nullptr;
CandidateSets* RefinedDaTest::candidates_ = nullptr;

TEST_F(RefinedDaTest, RejectsMismatchedSizes) {
  RefinedDaConfig config;
  CandidateSets wrong(3);
  auto r = RunRefinedDa(*anon_, *aux_, wrong, nullptr,
                        DenseCandidateSource(*similarity_), config);
  EXPECT_FALSE(r.ok());
}

TEST_F(RefinedDaTest, PredictionsWithinCandidates) {
  RefinedDaConfig config;
  config.learner = LearnerKind::kNearestCentroid;
  auto r = RunRefinedDa(*anon_, *aux_, *candidates_, nullptr,
                        DenseCandidateSource(*similarity_), config);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->predictions.size(),
            static_cast<size_t>(anon_->num_users()));
  for (size_t u = 0; u < r->predictions.size(); ++u) {
    const int p = r->predictions[u];
    if (p == kNotPresent) continue;
    const auto& cands = (*candidates_)[u];
    EXPECT_NE(std::find(cands.begin(), cands.end(), p), cands.end());
  }
}

TEST_F(RefinedDaTest, BeatsRandomGuessing) {
  RefinedDaConfig config;
  config.learner = LearnerKind::kNearestCentroid;
  auto r = RunRefinedDa(*anon_, *aux_, *candidates_, nullptr,
                        DenseCandidateSource(*similarity_), config);
  ASSERT_TRUE(r.ok());
  auto counts = EvaluateRefinedDa(*r, scenario_->truth);
  // Random guessing over 40 auxiliary users ≈ 2.5%; the attack must do
  // far better on style-distinct synthetic users.
  EXPECT_GT(counts.Accuracy(), 0.3);
}

TEST_F(RefinedDaTest, AllLearnersRun) {
  for (LearnerKind learner :
       {LearnerKind::kKnn, LearnerKind::kSmoSvm, LearnerKind::kRlsc,
        LearnerKind::kNearestCentroid}) {
    RefinedDaConfig config;
    config.learner = learner;
    config.svm.max_iterations = 50;  // keep the suite fast
    auto r = RunRefinedDa(*anon_, *aux_, *candidates_, nullptr,
                          DenseCandidateSource(*similarity_), config);
    ASSERT_TRUE(r.ok()) << LearnerKindName(learner);
    int predicted = 0;
    for (int p : r->predictions)
      if (p != kNotPresent) ++predicted;
    EXPECT_GT(predicted, 0) << LearnerKindName(learner);
  }
}

TEST_F(RefinedDaTest, FilteringRejectionsPropagate) {
  RefinedDaConfig config;
  config.learner = LearnerKind::kNearestCentroid;
  std::vector<bool> rejected(static_cast<size_t>(anon_->num_users()),
                             false);
  rejected[0] = true;
  auto r = RunRefinedDa(*anon_, *aux_, *candidates_, &rejected,
                        DenseCandidateSource(*similarity_), config);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->predictions[0], kNotPresent);
  EXPECT_GE(r->num_rejected, 1);
}

TEST_F(RefinedDaTest, MeanVerificationRejectsWeakMatches) {
  RefinedDaConfig strict;
  strict.learner = LearnerKind::kNearestCentroid;
  strict.verification = VerificationScheme::kMeanVerification;
  strict.mean_verification_r = 100.0;  // impossible bar: everyone rejected
  auto r = RunRefinedDa(*anon_, *aux_, *candidates_, nullptr,
                        DenseCandidateSource(*similarity_), strict);
  ASSERT_TRUE(r.ok());
  for (int p : r->predictions) EXPECT_EQ(p, kNotPresent);
}

TEST_F(RefinedDaTest, MeanVerificationZeroRAcceptsTopCandidate) {
  RefinedDaConfig lax;
  lax.learner = LearnerKind::kNearestCentroid;
  lax.verification = VerificationScheme::kMeanVerification;
  lax.mean_verification_r = 0.0;
  auto r = RunRefinedDa(*anon_, *aux_, *candidates_, nullptr,
                        DenseCandidateSource(*similarity_), lax);
  ASSERT_TRUE(r.ok());
  int accepted = 0;
  for (int p : r->predictions)
    if (p != kNotPresent) ++accepted;
  EXPECT_GT(accepted, 0);
}

TEST_F(RefinedDaTest, FalseAdditionCanReject) {
  RefinedDaConfig config;
  config.learner = LearnerKind::kNearestCentroid;
  config.verification = VerificationScheme::kFalseAddition;
  config.false_addition_count = 10;
  auto r = RunRefinedDa(*anon_, *aux_, *candidates_, nullptr,
                        DenseCandidateSource(*similarity_), config);
  ASSERT_TRUE(r.ok());
  // Decoys must never be returned as predictions outside candidate sets...
  // they are rejected to ⊥ instead, so every non-⊥ prediction is a real
  // candidate.
  for (size_t u = 0; u < r->predictions.size(); ++u) {
    const int p = r->predictions[u];
    if (p == kNotPresent) continue;
    const auto& cands = (*candidates_)[u];
    EXPECT_NE(std::find(cands.begin(), cands.end(), p), cands.end());
  }
}

TEST_F(RefinedDaTest, SharedVariantRejectsDifferingCandidateSets) {
  RefinedDaConfig config;
  config.learner = LearnerKind::kNearestCentroid;
  // Per-user candidate sets differ, so the shared variant must refuse.
  auto r = RunRefinedDaShared(*anon_, *aux_, *candidates_,
                              DenseCandidateSource(*similarity_), config);
  EXPECT_FALSE(r.ok());
}

TEST_F(RefinedDaTest, SharedVariantMatchesPerUserOnUniformCandidates) {
  std::vector<int> all(static_cast<size_t>(aux_->num_users()));
  std::iota(all.begin(), all.end(), 0);
  const CandidateSets uniform(
      static_cast<size_t>(anon_->num_users()), all);
  for (const auto aggregation :
       {RefinedDaConfig::PostAggregation::kScoreSum,
        RefinedDaConfig::PostAggregation::kMajorityVote}) {
    for (const LearnerKind learner :
         {LearnerKind::kNearestCentroid, LearnerKind::kKnn}) {
      SCOPED_TRACE(std::string(LearnerKindName(learner)) +
                   (aggregation ==
                            RefinedDaConfig::PostAggregation::kScoreSum
                        ? " score sum"
                        : " majority vote"));
      RefinedDaConfig config;
      config.learner = learner;
      config.aggregation = aggregation;
      auto shared = RunRefinedDaShared(
          *anon_, *aux_, uniform, DenseCandidateSource(*similarity_), config);
      auto per_user = RunRefinedDa(*anon_, *aux_, uniform, nullptr,
                                   DenseCandidateSource(*similarity_), config);
      ASSERT_TRUE(shared.ok() && per_user.ok());
      EXPECT_EQ(shared->predictions, per_user->predictions);
    }
  }
}

TEST(LearnerKindNameTest, AllNamed) {
  EXPECT_STREQ(LearnerKindName(LearnerKind::kKnn), "KNN");
  EXPECT_STREQ(LearnerKindName(LearnerKind::kSmoSvm), "SMO");
  EXPECT_STREQ(LearnerKindName(LearnerKind::kRlsc), "RLSC");
  EXPECT_STREQ(LearnerKindName(LearnerKind::kNearestCentroid),
               "NearestCentroid");
}

}  // namespace
}  // namespace dehealth
