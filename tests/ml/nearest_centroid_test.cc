#include "ml/nearest_centroid.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "io/byte_codec.h"
#include "testing/classify.h"

namespace dehealth {
namespace {

TEST(NearestCentroidTest, RejectsEmpty) {
  NearestCentroidClassifier nc;
  EXPECT_FALSE(nc.Fit(Dataset()).ok());
}

TEST(NearestCentroidTest, CentroidsAreClassMeans) {
  NearestCentroidClassifier nc;
  ASSERT_TRUE(nc.Fit(Dataset(2, {0.0, 0.0, 2.0, 2.0, 10.0, 0.0}, {0, 0, 1}))
                  .ok());
  // Class 0's centroid is (1, 1), class 1's (10, 0): each scores exactly
  // -0 at its own centroid.
  const std::vector<double> at_first = Scores(nc, {1.0, 1.0});
  EXPECT_EQ(at_first[0], 0.0);
  EXPECT_EQ(at_first[1], -std::sqrt(82.0));
  EXPECT_EQ(Scores(nc, {10.0, 0.0})[1], 0.0);
}

TEST(NearestCentroidTest, PredictsNearest) {
  NearestCentroidClassifier nc;
  ASSERT_TRUE(nc.Fit(Dataset(1, {0.0, 10.0}, {5, 6})).ok());
  EXPECT_EQ(PredictedClass(nc, {1.0}), 5);
  EXPECT_EQ(PredictedClass(nc, {9.0}), 6);
}

TEST(NearestCentroidTest, ScoresAreNegatedDistances) {
  NearestCentroidClassifier nc;
  ASSERT_TRUE(nc.Fit(Dataset(1, {0.0, 4.0}, {0, 1})).ok());
  auto scores = Scores(nc, {1.0});
  EXPECT_NEAR(scores[0], -1.0, 1e-12);
  EXPECT_NEAR(scores[1], -3.0, 1e-12);
}

TEST(NearestCentroidTest, SingleClass) {
  NearestCentroidClassifier nc;
  ASSERT_TRUE(nc.Fit(Dataset(1, {1.0}, {3})).ok());
  EXPECT_EQ(PredictedClass(nc, {-50.0}), 3);
}

TEST(NearestCentroidTest, DecisionScoresMatchPinnedValues) {
  // Three classes in ten dimensions. The literal was computed by the build
  // that kept one std::vector per centroid; the C x D array must not move
  // a bit.
  const Dataset d = ThreeClassesInTenDims();
  NearestCentroidClassifier nc;
  ASSERT_TRUE(nc.Fit(d).ok());
  uint64_t hash = kFnv1aBasis;
  for (size_t i = 0; i < d.size(); ++i)
    for (const double score : Scores(nc, d.row(i)))
      hash = Fnv1aValue(hash, std::bit_cast<uint64_t>(score));
  EXPECT_EQ(hash, 0x7c3a4cfa0091a4a8ULL) << std::hex << hash;
}

}  // namespace
}  // namespace dehealth
