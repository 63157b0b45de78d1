#include "ml/rlsc.h"

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "io/byte_codec.h"
#include "testing/classify.h"

namespace dehealth {
namespace {

Dataset TwoGaussians(uint64_t seed, int per_class = 20) {
  Rng rng(seed);
  std::vector<double> values;
  std::vector<int> labels;
  for (int i = 0; i < per_class; ++i) {
    values.push_back(rng.NextGaussian(-2.0, 0.6));
    values.push_back(rng.NextGaussian(0.0, 0.6));
    labels.push_back(0);
    values.push_back(rng.NextGaussian(2.0, 0.6));
    values.push_back(rng.NextGaussian(0.0, 0.6));
    labels.push_back(1);
  }
  return Dataset(2, std::move(values), std::move(labels));
}

TEST(RlscTest, RejectsEmpty) {
  RlscClassifier rlsc;
  EXPECT_FALSE(rlsc.Fit(Dataset()).ok());
}

TEST(RlscTest, SeparatesTwoClasses) {
  RlscClassifier rlsc(0.1);
  const Dataset d = TwoGaussians(21);
  ASSERT_TRUE(rlsc.Fit(d).ok());
  int correct = 0;
  for (size_t i = 0; i < d.size(); ++i)
    if (PredictedClass(rlsc, d.row(i)) == d.label(i)) ++correct;
  EXPECT_GE(correct, static_cast<int>(d.size()) - 1);
}

TEST(RlscTest, BiasTermLearned) {
  // Classes separated only by an offset along one axis: bias must help.
  RlscClassifier rlsc(0.01);
  ASSERT_TRUE(rlsc.Fit(Dataset(1, {1.0, 2.0, 8.0, 9.0}, {0, 0, 1, 1})).ok());
  EXPECT_EQ(PredictedClass(rlsc, {1.5}), 0);
  EXPECT_EQ(PredictedClass(rlsc, {8.5}), 1);
}

TEST(RlscTest, MulticlassOneVsRest) {
  // Non-collinear centers: with collinear classes a *linear* one-vs-rest
  // machine can never represent the middle class's "bump".
  Rng rng(23);
  std::vector<double> values;
  std::vector<int> labels;
  const double centers[3][2] = {{-6.0, 0.0}, {6.0, 0.0}, {0.0, 6.0}};
  for (int c = 0; c < 3; ++c)
    for (int i = 0; i < 15; ++i) {
      values.push_back(centers[c][0] + rng.NextGaussian(0.0, 0.5));
      values.push_back(centers[c][1] + rng.NextGaussian(0.0, 0.5));
      labels.push_back(c);
    }
  RlscClassifier rlsc(0.1);
  ASSERT_TRUE(rlsc.Fit(Dataset(2, values, labels)).ok());
  EXPECT_EQ(PredictedClass(rlsc, {-6.0, 0.0}), 0);
  EXPECT_EQ(PredictedClass(rlsc, {6.0, 0.0}), 1);
  EXPECT_EQ(PredictedClass(rlsc, {0.0, 6.0}), 2);
}

TEST(RlscTest, HeavyRegularizationShrinksConfidence) {
  const Dataset d = TwoGaussians(29);
  RlscClassifier weak(0.01), strong(1000.0);
  ASSERT_TRUE(weak.Fit(d).ok());
  ASSERT_TRUE(strong.Fit(d).ok());
  auto sw = Scores(weak, {2.0, 0.0});
  auto ss = Scores(strong, {2.0, 0.0});
  // Strong regularization pulls scores toward 0.
  EXPECT_LT(std::abs(ss[1]), std::abs(sw[1]));
}

TEST(RlscTest, HighDimensionalFewSamples) {
  // dims >> samples is the refined-DA regime; regularization keeps the
  // normal equations solvable.
  Rng rng(31);
  std::vector<double> values;
  std::vector<int> labels;
  for (int i = 0; i < 8; ++i) {
    std::vector<double> x(50);
    for (double& v : x) v = rng.NextGaussian();
    x[0] += i % 2 == 0 ? 4.0 : -4.0;
    values.insert(values.end(), x.begin(), x.end());
    labels.push_back(i % 2);
  }
  RlscClassifier rlsc(1.0);
  ASSERT_TRUE(rlsc.Fit(Dataset(50, values, labels)).ok());
  std::vector<double> probe(50, 0.0);
  probe[0] = 4.0;
  EXPECT_EQ(PredictedClass(rlsc, probe), 0);
}

TEST(RlscTest, DecisionScoresMatchPinnedValues) {
  // Three classes in ten dimensions: every class solves against one Gram
  // matrix. The literal was computed by the build that factored that
  // matrix once per class; factoring it once must not move a bit.
  const Dataset d = ThreeClassesInTenDims();
  RlscClassifier rlsc(0.1);
  ASSERT_TRUE(rlsc.Fit(d).ok());
  uint64_t hash = kFnv1aBasis;
  for (size_t i = 0; i < d.size(); ++i)
    for (const double score : Scores(rlsc, d.row(i)))
      hash = Fnv1aValue(hash, std::bit_cast<uint64_t>(score));
  EXPECT_EQ(hash, 0x7d527af5af8384faULL);
}

}  // namespace
}  // namespace dehealth
