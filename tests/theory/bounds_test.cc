#include "theory/bounds.h"

#include <cmath>

#include <gtest/gtest.h>

namespace dehealth {
namespace {

DaParameters WellSeparated() {
  DaParameters p;
  p.lambda_correct = 0.2;
  p.lambda_incorrect = 0.8;
  p.theta_correct = 0.1;
  p.theta_incorrect = 0.1;
  return p;
}

TEST(DaParametersTest, Validation) {
  EXPECT_TRUE(WellSeparated().Validate().ok());
  DaParameters equal = WellSeparated();
  equal.lambda_incorrect = equal.lambda_correct;
  EXPECT_FALSE(equal.Validate().ok());
  DaParameters bad_range = WellSeparated();
  bad_range.theta_correct = 0.0;
  EXPECT_FALSE(bad_range.Validate().ok());
}

TEST(DaParametersTest, DeltaIsMaxRange) {
  DaParameters p = WellSeparated();
  p.theta_correct = 0.3;
  p.theta_incorrect = 0.1;
  EXPECT_EQ(p.delta(), 0.3);
}

TEST(ExactDaPairBoundTest, LargeGapApproachesOne) {
  EXPECT_GT(ExactDaPairLowerBound(WellSeparated()), 0.99);
}

TEST(ExactDaPairBoundTest, TinyGapGivesVacuousBound) {
  DaParameters p = WellSeparated();
  p.lambda_incorrect = 0.21;  // gap 0.01 << delta 0.1
  EXPECT_EQ(ExactDaPairLowerBound(p), 0.0);  // clamped
}

TEST(ExactDaPairBoundTest, MonotoneInGap) {
  DaParameters p = WellSeparated();
  double prev = -1.0;
  for (double gap : {0.1, 0.2, 0.4, 0.6}) {
    p.lambda_incorrect = p.lambda_correct + gap;
    const double bound = ExactDaPairLowerBound(p);
    EXPECT_GE(bound, prev);
    prev = bound;
  }
}

TEST(ExactDaPairBoundTest, SymmetricInGapSign) {
  DaParameters pos = WellSeparated();
  DaParameters neg = pos;
  neg.lambda_correct = pos.lambda_incorrect;
  neg.lambda_incorrect = pos.lambda_correct;
  EXPECT_NEAR(ExactDaPairLowerBound(pos), ExactDaPairLowerBound(neg),
              1e-12);
}

TEST(AsymptoticConditionsTest, HoldForWideGapsOnly) {
  DaParameters wide = WellSeparated();
  wide.lambda_incorrect = 2.0;  // normalized gap 9
  EXPECT_TRUE(PairAsymptoticCondition(wide, 100));
  DaParameters narrow = WellSeparated();
  narrow.lambda_incorrect = 0.25;  // normalized gap 0.25
  EXPECT_FALSE(PairAsymptoticCondition(narrow, 100));
}

TEST(AsymptoticConditionsTest, FullSetStricterThanPair) {
  // Any parameters satisfying the full-set condition satisfy the pair one.
  for (double gap : {0.5, 1.0, 2.0, 4.0}) {
    DaParameters p = WellSeparated();
    p.lambda_incorrect = p.lambda_correct + gap;
    for (int n : {10, 100, 1000}) {
      if (FullSetAsymptoticCondition(p, n)) {
        EXPECT_TRUE(PairAsymptoticCondition(p, n));
      }
    }
  }
}

TEST(FullSetBoundTest, DecreasesWithPopulation) {
  DaParameters p = WellSeparated();
  p.lambda_incorrect = 0.5;
  const double small = ExactDaFullSetLowerBound(p, 10);
  const double large = ExactDaFullSetLowerBound(p, 10000);
  EXPECT_GE(small, large);
}

TEST(GroupBoundTest, DecreasesWithGroupSize) {
  DaParameters p = WellSeparated();
  const double small_group = GroupDaLowerBound(p, 0.1, 1000, 1000);
  const double large_group = GroupDaLowerBound(p, 1.0, 1000, 1000);
  EXPECT_GE(small_group, large_group);
}

TEST(GroupBoundTest, ClampedToUnitInterval) {
  DaParameters p = WellSeparated();
  p.lambda_incorrect = 0.21;
  const double b = GroupDaLowerBound(p, 1.0, 100000, 100000);
  EXPECT_GE(b, 0.0);
  EXPECT_LE(b, 1.0);
}

TEST(TopKBoundTest, IncreasesWithK) {
  DaParameters p = WellSeparated();
  p.lambda_incorrect = 0.45;
  double prev = -1.0;
  for (int k : {1, 10, 50, 90}) {
    const double b = TopKDaLowerBound(p, 100, k);
    EXPECT_GE(b, prev) << k;
    prev = b;
  }
}

TEST(TopKBoundTest, FullCoverageIsCertain) {
  DaParameters p = WellSeparated();
  EXPECT_EQ(TopKDaLowerBound(p, 100, 100), 1.0);
  EXPECT_EQ(TopKDaLowerBound(p, 100, 200), 1.0);
  EXPECT_TRUE(TopKAsymptoticCondition(p, 100, 100, 10));
}

TEST(TopKBoundTest, TighterThanExactBound) {
  // Top-K is easier than exact: its bound is at least the n2-union exact
  // bound for K >= 1.
  DaParameters p = WellSeparated();
  p.lambda_incorrect = 0.5;
  const double exact = ExactDaFullSetLowerBound(p, 200);
  const double topk = TopKDaLowerBound(p, 200, 20);
  EXPECT_GE(topk, exact);
}

TEST(GroupTopKBoundTest, MatchesSingleUserWhenAlphaTiny) {
  DaParameters p = WellSeparated();
  // alpha*n1 == 1 recovers Theorem 3's form.
  const double group = GroupTopKDaLowerBound(p, 1.0 / 500.0, 500, 200, 10);
  const double single = TopKDaLowerBound(p, 200, 10);
  EXPECT_NEAR(group, single, 1e-9);
}

TEST(GroupTopKBoundTest, ConditionMonotoneInN) {
  DaParameters p = WellSeparated();
  p.lambda_incorrect = 1.4;
  // If it holds for larger n it must hold for smaller n.
  if (GroupTopKAsymptoticCondition(p, 0.5, 1000, 1000, 10, 1000)) {
    EXPECT_TRUE(GroupTopKAsymptoticCondition(p, 0.5, 1000, 1000, 10, 10));
  }
}

TEST(RequiredGapTest, InvertsPairBound) {
  const double delta = 0.2;
  for (double target : {0.5, 0.9, 0.99}) {
    const double gap = RequiredGapForPairBound(delta, target);
    DaParameters p;
    p.lambda_correct = 0.0;
    p.lambda_incorrect = gap;
    p.theta_correct = delta;
    p.theta_incorrect = delta;
    EXPECT_NEAR(ExactDaPairLowerBound(p), target, 1e-9);
  }
}

TEST(RequiredGapTest, GrowsWithTargetAndDelta) {
  EXPECT_LT(RequiredGapForPairBound(0.1, 0.5),
            RequiredGapForPairBound(0.1, 0.99));
  EXPECT_LT(RequiredGapForPairBound(0.1, 0.9),
            RequiredGapForPairBound(0.5, 0.9));
}

}  // namespace
}  // namespace dehealth
