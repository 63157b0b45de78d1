#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace dehealth {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.NextUint64() == b.NextUint64()) ++same;
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBounded(17), 17u);
}

TEST(RngTest, BoundedCoversAllValues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.NextBounded(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    if (v == -3) saw_lo = true;
    if (v == 3) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, DoubleRangeRespected) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble(2.5, 3.5);
    EXPECT_GE(d, 2.5);
    EXPECT_LT(d, 3.5);
  }
}

TEST(RngTest, BoolEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, BoolApproximatesProbability) {
  Rng rng(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (rng.NextBool(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  const int n = 50000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, GaussianShifted) {
  Rng rng(19);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.NextGaussian(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(37);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {};
  for (int i = 0; i < 20000; ++i) ++counts[rng.NextCategorical(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(41);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ShuffleActuallyPermutes) {
  Rng rng(43);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[static_cast<size_t>(i)] = i;
  auto orig = v;
  rng.Shuffle(v);
  EXPECT_NE(v, orig);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(47);
  for (size_t k : {0u, 1u, 5u, 50u, 100u}) {
    auto sample = rng.SampleWithoutReplacement(100, k);
    EXPECT_EQ(sample.size(), k);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), k);
    for (size_t idx : sample) EXPECT_LT(idx, 100u);
  }
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(53);
  auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(ZipfSamplerTest, MatchesDirectZipfDistribution) {
  Rng rng(59);
  ZipfSampler sampler(100, 1.5);
  std::vector<int> counts(101, 0);
  for (int i = 0; i < 50000; ++i) {
    int rank = sampler.Sample(rng);
    ASSERT_GE(rank, 1);
    ASSERT_LE(rank, 100);
    ++counts[rank];
  }
  // P(1)/P(2) should be ~2^1.5 ≈ 2.83.
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[2], 2.83, 0.5);
}

TEST(ZipfSamplerTest, SingleElement) {
  Rng rng(61);
  ZipfSampler sampler(1, 2.0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sampler.Sample(rng), 1);
}

}  // namespace
}  // namespace dehealth
