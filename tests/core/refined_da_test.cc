#include "core/refined_da.h"

#include <cstdint>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "core/evaluation.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "io/byte_codec.h"
#include "stylo/feature_layout.h"

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

/// FNV-1a over a result's answers: every prediction, then every rejection
/// bit.
uint64_t HashAnswers(uint64_t hash, const RefinedDaResult& r) {
  for (const int p : r.predictions) hash = Fnv1aValue(hash, p);
  for (const bool rejected : r.rejected)
    hash = Fnv1aValue(hash, static_cast<uint8_t>(rejected));
  return hash;
}

TEST_F(RefinedDaTest, PredictionsMatchPinnedValues) {
  // Every learner under both aggregations, with and without structural
  // features, closed world and false addition; then the shared variant.
  // The literals were computed by the build that trained on one
  // std::vector per post through a hash-map column index: the flat
  // per-user matrix must not move an answer.
  const struct {
    LearnerKind learner;
    uint64_t per_user;
    uint64_t shared;  // 0: the shared variant is not pinned
  } pins[] = {
      {LearnerKind::kKnn, 0x9504678a13ed15caULL, 0xafd6adbd177b8c96ULL},
      {LearnerKind::kSmoSvm, 0x611433b159f35082ULL, 0},
      {LearnerKind::kRlsc, 0xff66c40be7babea4ULL, 0},
      {LearnerKind::kNearestCentroid, 0x1b010e82fe1a8dd9ULL,
       0x2a560a5434590048ULL},
  };
  std::vector<int> all(static_cast<size_t>(aux_->num_users()));
  std::iota(all.begin(), all.end(), 0);
  const CandidateSets uniform(static_cast<size_t>(anon_->num_users()), all);
  const DenseCandidateSource scores(*similarity_);
  for (const auto& pin : pins) {
    SCOPED_TRACE(LearnerKindName(pin.learner));
    RefinedDaConfig config;
    config.learner = pin.learner;
    uint64_t per_user = kFnv1aBasis;
    uint64_t shared = kFnv1aBasis;
    for (const auto aggregation :
         {RefinedDaConfig::PostAggregation::kScoreSum,
          RefinedDaConfig::PostAggregation::kMajorityVote}) {
      config.aggregation = aggregation;
      for (const bool structural : {true, false}) {
        config.include_structural_features = structural;
        for (const VerificationScheme verification :
             {VerificationScheme::kNone, VerificationScheme::kFalseAddition}) {
          config.verification = verification;
          auto r = RunRefinedDa(*anon_, *aux_, *candidates_, nullptr, scores,
                                config);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          per_user = HashAnswers(per_user, *r);
        }
        if (pin.shared == 0) continue;
        config.verification = VerificationScheme::kNone;
        auto r = RunRefinedDaShared(*anon_, *aux_, uniform, scores, config);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        shared = HashAnswers(shared, *r);
      }
    }
    EXPECT_EQ(per_user, pin.per_user) << std::hex << per_user;
    if (pin.shared != 0) {
      EXPECT_EQ(shared, pin.shared) << std::hex << shared;
    }
  }
}

/// A side of `posts.size()` isolated users, user i holding the one post
/// posts[i].
UdaGraph OnePostPerUser(const std::vector<SparseVector>& posts) {
  UdaGraph side;
  side.graph = CorrelationGraph(static_cast<int>(posts.size()));
  side.attributes.resize(posts.size());
  for (const SparseVector& post : posts) side.post_features.push_back({post});
  return side;
}

SparseVector Post(int id) {
  SparseVector post;
  post.Set(3, 1.0);
  post.Set(id, 2.0);
  return post;
}

TEST(RefinedDaFailClosedTest, RejectsFeatureIdsOutsideTheLayout) {
  // Every entry point refuses a post, training or query, whose feature id
  // has no column, instead of indexing past the column map.
  const std::vector<std::vector<double>> matrix = {{0.5, 0.25}};
  const DenseCandidateSource scores(matrix);
  const CandidateSets candidates = {{0, 1}};
  RefinedDaConfig config;
  config.learner = LearnerKind::kNearestCentroid;
  const UdaGraph good_anon = OnePostPerUser({Post(7)});
  const UdaGraph good_aux = OnePostPerUser({Post(5), Post(9)});
  ASSERT_TRUE(RunRefinedDa(good_anon, good_aux, candidates, nullptr, scores,
                           config)
                  .ok());
  for (const int bad : {-1, feature_layout::kTotalFeatures}) {
    SCOPED_TRACE(bad);
    const UdaGraph bad_anon = OnePostPerUser({Post(bad)});
    const UdaGraph bad_aux = OnePostPerUser({Post(5), Post(bad)});
    for (const auto& [anon, aux] :
         {std::pair(&bad_anon, &good_aux), std::pair(&good_anon, &bad_aux)}) {
      auto full = RunRefinedDa(*anon, *aux, candidates, nullptr, scores,
                               config);
      EXPECT_EQ(full.status().code(), StatusCode::kInvalidArgument);
      auto batch = RunRefinedDaForUsers(*anon, *aux, {0}, candidates, nullptr,
                                        scores, config);
      EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
      auto shared = RunRefinedDaShared(*anon, *aux, candidates, scores,
                                       config);
      EXPECT_EQ(shared.status().code(), StatusCode::kInvalidArgument);
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
