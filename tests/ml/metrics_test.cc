#include "ml/metrics.h"

#include <gtest/gtest.h>

namespace dehealth {
namespace {

TEST(AccuracyTest, Basics) {
  EXPECT_EQ(Accuracy({}, {}), 0.0);
  EXPECT_EQ(Accuracy({1, 2, 3}, {1, 2, 3}), 1.0);
  EXPECT_EQ(Accuracy({1, 0, 3}, {1, 2, 3}), 2.0 / 3.0);
  EXPECT_EQ(Accuracy({0}, {1}), 0.0);
}

TEST(OpenWorldCountsTest, AccuracyAndFpRate) {
  OpenWorldCounts c;
  c.overlapping = 10;
  c.correct_overlapping = 7;
  c.non_overlapping = 4;
  c.false_positives = 1;
  EXPECT_NEAR(c.Accuracy(), 0.7, 1e-12);
  EXPECT_NEAR(c.FalsePositiveRate(), 0.25, 1e-12);
}

TEST(OpenWorldCountsTest, ZeroDenominators) {
  OpenWorldCounts c;
  EXPECT_EQ(c.Accuracy(), 0.0);
  EXPECT_EQ(c.FalsePositiveRate(), 0.0);
}

TEST(TallyOpenWorldTest, MixedOutcomes) {
  // Users: 0 overlapping correct, 1 overlapping wrong, 2 overlapping
  // rejected, 3 non-overlapping accepted (FP), 4 non-overlapping rejected.
  const std::vector<int> predicted = {5, 9, kNotPresent, 2, kNotPresent};
  const std::vector<int> truth = {5, 6, 7, kNotPresent, kNotPresent};
  auto c = TallyOpenWorld(predicted, truth);
  EXPECT_EQ(c.overlapping, 3);
  EXPECT_EQ(c.correct_overlapping, 1);
  EXPECT_EQ(c.non_overlapping, 2);
  EXPECT_EQ(c.false_positives, 1);
}

TEST(TallyOpenWorldTest, ClosedWorldEquivalence) {
  const std::vector<int> predicted = {1, 2, 3};
  const std::vector<int> truth = {1, 2, 9};
  auto c = TallyOpenWorld(predicted, truth);
  EXPECT_EQ(c.non_overlapping, 0);
  EXPECT_NEAR(c.Accuracy(), 2.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace dehealth
