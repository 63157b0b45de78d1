#include "common/math_utils.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace dehealth {
namespace {

TEST(CosineSimilarityTest, IdenticalVectors) {
  std::vector<double> v = {1.0, 2.0, 3.0};
  EXPECT_NEAR(CosineSimilarity(v, v), 1.0, 1e-12);
}

TEST(CosineSimilarityTest, OrthogonalVectors) {
  EXPECT_NEAR(CosineSimilarity({1.0, 0.0}, {0.0, 1.0}), 0.0, 1e-12);
}

TEST(CosineSimilarityTest, OppositeVectors) {
  EXPECT_NEAR(CosineSimilarity({1.0, 1.0}, {-1.0, -1.0}), -1.0, 1e-12);
}

TEST(CosineSimilarityTest, ZeroVectorGivesZero) {
  EXPECT_EQ(CosineSimilarity({0.0, 0.0}, {1.0, 2.0}), 0.0);
  EXPECT_EQ(CosineSimilarity({}, {1.0}), 0.0);
}

TEST(CosineSimilarityTest, DifferentLengthsZeroPadded) {
  // {3, 4} vs {3, 4, 0} must equal {3,4} vs {3,4} with padding semantics.
  const double padded = CosineSimilarity({3.0, 4.0}, {3.0, 4.0, 5.0});
  // dot = 25, |a| = 5, |b| = sqrt(50).
  EXPECT_NEAR(padded, 25.0 / (5.0 * std::sqrt(50.0)), 1e-12);
}

TEST(CosineSimilarityTest, LengthMismatchMatchesExplicitZeroPadding) {
  // The length-mismatch contract, explicitly: cos(a, b) for |a| < |b| must
  // equal cos(a ++ zeros, b) exactly. The padded tail contributes nothing
  // to the dot product or to a's norm, while b's tail still counts toward
  // b's norm — mismatched hop/NCS vectors (graphs with different landmark
  // counts) rely on this.
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> a_padded = {1.0, 2.0, 0.0, 0.0};
  const std::vector<double> b = {4.0, 5.0, 6.0, 7.0};
  EXPECT_EQ(CosineSimilarity(a, b), CosineSimilarity(a_padded, b));
  // Symmetric in argument order.
  EXPECT_EQ(CosineSimilarity(a, b), CosineSimilarity(b, a));
  // Zero-padding a vector against itself is still a perfect match.
  EXPECT_NEAR(CosineSimilarity(a, a_padded), 1.0, 1e-12);
}

TEST(CosineSimilarityTest, LengthMismatchAgainstAllZeroTailIsZero) {
  // The longer vector's extra entries alone cannot manufacture similarity.
  EXPECT_EQ(CosineSimilarity({0.0, 0.0}, {0.0, 0.0, 3.0}), 0.0);
  EXPECT_EQ(CosineSimilarity({}, {1.0, 2.0, 3.0}), 0.0);
}

TEST(MinMaxRatioTest, Basics) {
  EXPECT_EQ(MinMaxRatio(0.0, 0.0), 1.0);  // "no signal" convention
  EXPECT_EQ(MinMaxRatio(0.0, 5.0), 0.0);
  EXPECT_NEAR(MinMaxRatio(2.0, 4.0), 0.5, 1e-12);
  EXPECT_NEAR(MinMaxRatio(4.0, 2.0), 0.5, 1e-12);
  EXPECT_EQ(MinMaxRatio(3.0, 3.0), 1.0);
}

TEST(MeanVarianceTest, KnownValues) {
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(Mean(v), 2.5, 1e-12);
  EXPECT_NEAR(Variance(v), 1.25, 1e-12);
  EXPECT_NEAR(StdDev(v), std::sqrt(1.25), 1e-12);
}

TEST(MeanVarianceTest, DegenerateInputs) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(Variance({}), 0.0);
  EXPECT_EQ(Variance({5.0}), 0.0);
}

TEST(SummarizeTest, ComputesAllFields) {
  auto s = Summarize({2.0, 4.0, 6.0});
  EXPECT_EQ(s.count, 3u);
  EXPECT_NEAR(s.mean, 4.0, 1e-12);
  EXPECT_EQ(s.min, 2.0);
  EXPECT_EQ(s.max, 6.0);
}

TEST(SummarizeTest, EmptyInput) {
  auto s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(EmpiricalCdfTest, StepFunction) {
  std::vector<double> values = {1.0, 2.0, 2.0, 5.0};
  auto cdf = EmpiricalCdf(values, {0.0, 1.0, 2.0, 4.0, 5.0});
  ASSERT_TRUE(cdf.ok());
  EXPECT_DOUBLE_EQ((*cdf)[0], 0.0);
  EXPECT_DOUBLE_EQ((*cdf)[1], 0.25);
  EXPECT_DOUBLE_EQ((*cdf)[2], 0.75);
  EXPECT_DOUBLE_EQ((*cdf)[3], 0.75);
  EXPECT_DOUBLE_EQ((*cdf)[4], 1.0);
}

TEST(EmpiricalCdfTest, EmptyValues) {
  auto cdf = EmpiricalCdf({}, {1.0, 2.0});
  ASSERT_TRUE(cdf.ok());
  EXPECT_EQ(cdf->size(), 2u);
  EXPECT_EQ((*cdf)[0], 0.0);
}

TEST(EmpiricalCdfTest, UnsortedThresholdsFailLoudly) {
  // The precondition used to be an `assert`, so a Release build silently
  // returned fractions misaligned with the thresholds. Now it is a typed
  // error in every build type.
  auto cdf = EmpiricalCdf({1.0, 2.0}, {5.0, 1.0});
  ASSERT_FALSE(cdf.ok());
  EXPECT_EQ(cdf.status().code(), StatusCode::kInvalidArgument);
}

TEST(HistogramTest, NanAndExtremeValuesAreWellDefined) {
  Histogram h(0.0, 10.0, 5);
  // NaN used to be UB on the float->long cast; now it counts into the
  // first bucket, mirroring LatencyHistogram::Record's contract.
  h.Add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.count(0), 1u);
  // Infinities and values far outside any representable long clamp to the
  // edge buckets instead of riding an implementation-defined cast.
  h.Add(std::numeric_limits<double>::infinity());
  h.Add(-std::numeric_limits<double>::infinity());
  h.Add(1e300);
  h.Add(-1e300);
  EXPECT_EQ(h.count(0), 3u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_EQ(h.total(), 5u);
  // The boundary value lands in the last bucket (same as before the fix).
  h.Add(10.0);
  EXPECT_EQ(h.count(4), 3u);
}

TEST(HistogramTest, BinningAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.Add(0.5);   // bin 0
  h.Add(9.5);   // bin 4
  h.Add(-3.0);  // clamped to bin 0
  h.Add(42.0);  // clamped to bin 4
  h.Add(5.0);   // bin 2
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_NEAR(h.Fraction(0), 0.4, 1e-12);
}

TEST(ClampTest, Basics) {
  EXPECT_EQ(Clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_EQ(Clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
}

}  // namespace
}  // namespace dehealth
