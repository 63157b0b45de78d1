#include "ml/knn.h"

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "io/byte_codec.h"
#include "testing/classify.h"

namespace dehealth {
namespace {

Dataset TwoClusters() {
  // Class 0 near origin, class 1 near (10, 10).
  return Dataset(2,
                 {0.0, 0.0, 0.5, 0.5, -0.5, 0.2,  //
                  10.0, 10.0, 10.5, 9.5, 9.5, 10.2},
                 {0, 0, 0, 1, 1, 1});
}

TEST(KnnTest, RejectsEmptyTraining) {
  KnnClassifier knn(3);
  EXPECT_FALSE(knn.Fit(Dataset()).ok());
}

TEST(KnnTest, ClassifiesClusters) {
  KnnClassifier knn(3);
  ASSERT_TRUE(knn.Fit(TwoClusters()).ok());
  EXPECT_EQ(PredictedClass(knn, {0.1, 0.1}), 0);
  EXPECT_EQ(PredictedClass(knn, {9.9, 9.9}), 1);
}

TEST(KnnTest, KCappedAtTrainingSize) {
  KnnClassifier knn(100);
  ASSERT_TRUE(knn.Fit(TwoClusters()).ok());
  EXPECT_EQ(knn.k(), 6);
  // Still classifies by distance-weighted voting.
  EXPECT_EQ(PredictedClass(knn, {0.0, 0.0}), 0);
}

TEST(KnnTest, SingleClassAlwaysPredictsIt) {
  KnnClassifier knn(1);
  ASSERT_TRUE(knn.Fit(Dataset(1, {1.0, 2.0}, {42, 42})).ok());
  EXPECT_EQ(PredictedClass(knn, {100.0}), 42);
}

TEST(KnnTest, DecisionScoresAlignWithClasses) {
  KnnClassifier knn(3);
  ASSERT_TRUE(knn.Fit(TwoClusters()).ok());
  const auto& classes = knn.classes();
  ASSERT_EQ(classes.size(), 2u);
  auto scores = Scores(knn, {0.0, 0.0});
  ASSERT_EQ(scores.size(), 2u);
  // Class 0 is closer => higher vote mass.
  EXPECT_GT(scores[0], scores[1]);
}

TEST(KnnTest, ExactMatchDominates) {
  KnnClassifier knn(1);
  ASSERT_TRUE(knn.Fit(TwoClusters()).ok());
  EXPECT_EQ(PredictedClass(knn, {10.0, 10.0}), 1);
}

TEST(KnnTest, DecisionScoresMatchPinnedValues) {
  // Three classes in ten dimensions, scored at 3 neighbours on points that
  // are not training rows. The literal was computed by the build that kept
  // one std::vector per training row; reading the rows of one flat matrix
  // must not move a bit.
  KnnClassifier knn(3);
  ASSERT_TRUE(knn.Fit(ThreeClassesInTenDims()).ok());
  // The queries continue the stream the training rows were drawn from.
  Rng rng(37);
  for (int i = 0; i < 24 * 10; ++i) rng.NextGaussian();
  uint64_t hash = kFnv1aBasis;
  for (int q = 0; q < 12; ++q) {
    std::vector<double> x(10);
    for (double& v : x) v = rng.NextGaussian(0.0, 2.0);
    for (const double score : Scores(knn, x))
      hash = Fnv1aValue(hash, std::bit_cast<uint64_t>(score));
  }
  EXPECT_EQ(hash, 0x8ac16b12cf41d313ULL) << std::hex << hash;
}

// Property: on a linearly separated random problem, 1-NN training accuracy
// is perfect.
class KnnPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(KnnPropertyTest, PerfectTrainingAccuracyWithK1) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 100);
  std::vector<double> values;
  std::vector<int> labels;
  for (int i = 0; i < 30; ++i) {
    const int label = i % 2;
    const double cx = label == 0 ? 0.0 : 8.0;
    values.push_back(cx + rng.NextGaussian(0.0, 1.0));
    values.push_back(cx + rng.NextGaussian(0.0, 1.0));
    labels.push_back(label);
  }
  const Dataset d(2, values, labels);
  KnnClassifier knn(1);
  ASSERT_TRUE(knn.Fit(d).ok());
  for (size_t i = 0; i < d.size(); ++i)
    EXPECT_EQ(PredictedClass(knn, d.row(i)), d.label(i));
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnnPropertyTest, ::testing::Range(0, 5));

}  // namespace
}  // namespace dehealth
