#include "ml/rlsc.h"

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "io/byte_codec.h"

namespace dehealth {
namespace {

Dataset TwoGaussians(uint64_t seed, int per_class = 20) {
  Rng rng(seed);
  Dataset d;
  for (int i = 0; i < per_class; ++i) {
    EXPECT_TRUE(d.Add({{rng.NextGaussian(-2.0, 0.6),
                        rng.NextGaussian(0.0, 0.6)},
                       0})
                    .ok());
    EXPECT_TRUE(d.Add({{rng.NextGaussian(2.0, 0.6),
                        rng.NextGaussian(0.0, 0.6)},
                       1})
                    .ok());
  }
  return d;
}

TEST(RlscTest, RejectsEmpty) {
  RlscClassifier rlsc;
  Dataset d;
  EXPECT_FALSE(rlsc.Fit(d).ok());
}

TEST(RlscTest, SeparatesTwoClasses) {
  RlscClassifier rlsc(0.1);
  Dataset d = TwoGaussians(21);
  ASSERT_TRUE(rlsc.Fit(d).ok());
  int correct = 0;
  for (size_t i = 0; i < d.size(); ++i)
    if (rlsc.Predict(d[i].features) == d[i].label) ++correct;
  EXPECT_GE(correct, static_cast<int>(d.size()) - 1);
}

TEST(RlscTest, BiasTermLearned) {
  // Classes separated only by an offset along one axis: bias must help.
  Dataset d;
  ASSERT_TRUE(d.Add({{1.0}, 0}).ok());
  ASSERT_TRUE(d.Add({{2.0}, 0}).ok());
  ASSERT_TRUE(d.Add({{8.0}, 1}).ok());
  ASSERT_TRUE(d.Add({{9.0}, 1}).ok());
  RlscClassifier rlsc(0.01);
  ASSERT_TRUE(rlsc.Fit(d).ok());
  EXPECT_EQ(rlsc.Predict({1.5}), 0);
  EXPECT_EQ(rlsc.Predict({8.5}), 1);
}

TEST(RlscTest, MulticlassOneVsRest) {
  // Non-collinear centers: with collinear classes a *linear* one-vs-rest
  // machine can never represent the middle class's "bump".
  Rng rng(23);
  Dataset d;
  const double centers[3][2] = {{-6.0, 0.0}, {6.0, 0.0}, {0.0, 6.0}};
  for (int c = 0; c < 3; ++c)
    for (int i = 0; i < 15; ++i)
      ASSERT_TRUE(d.Add({{centers[c][0] + rng.NextGaussian(0.0, 0.5),
                          centers[c][1] + rng.NextGaussian(0.0, 0.5)},
                         c})
                      .ok());
  RlscClassifier rlsc(0.1);
  ASSERT_TRUE(rlsc.Fit(d).ok());
  EXPECT_EQ(rlsc.Predict({-6.0, 0.0}), 0);
  EXPECT_EQ(rlsc.Predict({6.0, 0.0}), 1);
  EXPECT_EQ(rlsc.Predict({0.0, 6.0}), 2);
}

TEST(RlscTest, HeavyRegularizationShrinksConfidence) {
  Dataset d = TwoGaussians(29);
  RlscClassifier weak(0.01), strong(1000.0);
  ASSERT_TRUE(weak.Fit(d).ok());
  ASSERT_TRUE(strong.Fit(d).ok());
  auto sw = weak.DecisionScores({2.0, 0.0});
  auto ss = strong.DecisionScores({2.0, 0.0});
  // Strong regularization pulls scores toward 0.
  EXPECT_LT(std::abs(ss[1]), std::abs(sw[1]));
}

TEST(RlscTest, HighDimensionalFewSamples) {
  // dims >> samples is the refined-DA regime; regularization keeps the
  // normal equations solvable.
  Rng rng(31);
  Dataset d(50);
  for (int i = 0; i < 8; ++i) {
    std::vector<double> x(50);
    for (double& v : x) v = rng.NextGaussian();
    x[0] += i % 2 == 0 ? 4.0 : -4.0;
    ASSERT_TRUE(d.Add({std::move(x), i % 2}).ok());
  }
  RlscClassifier rlsc(1.0);
  ASSERT_TRUE(rlsc.Fit(d).ok());
  std::vector<double> probe(50, 0.0);
  probe[0] = 4.0;
  EXPECT_EQ(rlsc.Predict(probe), 0);
}

TEST(RlscTest, DecisionScoresMatchPinnedValues) {
  // Three classes in ten dimensions: every class solves against one Gram
  // matrix. The literal was computed by the build that factored that
  // matrix once per class; factoring it once must not move a bit.
  Rng rng(37);
  Dataset d(10);
  for (int i = 0; i < 24; ++i) {
    std::vector<double> x(10);
    for (double& v : x) v = rng.NextGaussian();
    x[static_cast<size_t>(i % 3)] += 3.0;
    ASSERT_TRUE(d.Add({std::move(x), i % 3}).ok());
  }
  RlscClassifier rlsc(0.1);
  ASSERT_TRUE(rlsc.Fit(d).ok());
  uint64_t hash = kFnv1aBasis;
  for (size_t i = 0; i < d.size(); ++i)
    for (const double score : rlsc.DecisionScores(d[i].features))
      hash = Fnv1aValue(hash, std::bit_cast<uint64_t>(score));
  EXPECT_EQ(hash, 0x7d527af5af8384faULL);
}

}  // namespace
}  // namespace dehealth
