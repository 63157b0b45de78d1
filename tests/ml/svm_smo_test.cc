#include "ml/svm_smo.h"

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "io/byte_codec.h"
#include "testing/classify.h"

namespace dehealth {
namespace {

/// Rows labelled +1 around (3, 3) and -1 around (-3, -3).
Dataset LinearlySeparable(int per_class, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values;
  std::vector<int> labels;
  for (int i = 0; i < per_class; ++i) {
    values.push_back(rng.NextGaussian(-3.0, 0.8));
    values.push_back(rng.NextGaussian(-3.0, 0.8));
    labels.push_back(-1);
    values.push_back(rng.NextGaussian(3.0, 0.8));
    values.push_back(rng.NextGaussian(3.0, 0.8));
    labels.push_back(1);
  }
  return Dataset(2, std::move(values), std::move(labels));
}

/// Trains `svm` as the machine of class +1 on `data`.
Status FitPositive(BinarySvm& svm, const Dataset& data,
                   const SvmConfig& config = {}) {
  return svm.Fit(data, 1, KernelGram(data, config));
}

int Sign(const BinarySvm& svm, std::span<const double> x) {
  return svm.Decision(x) >= 0.0 ? 1 : -1;
}

TEST(BinarySvmTest, RejectsBadInputs) {
  BinarySvm svm;
  EXPECT_FALSE(svm.Fit(Dataset(), 1, Matrix()).ok());
  const Dataset one(1, {1.0}, {1});
  EXPECT_FALSE(svm.Fit(one, 1, Matrix(2, 2)).ok());  // gram of another size
}

TEST(BinarySvmTest, SeparatesLinearClasses) {
  const Dataset d = LinearlySeparable(20, 5);
  BinarySvm svm;
  ASSERT_TRUE(FitPositive(svm, d).ok());
  int correct = 0;
  for (size_t i = 0; i < d.size(); ++i)
    if (Sign(svm, d.row(i)) == d.label(i)) ++correct;
  EXPECT_GE(correct, static_cast<int>(d.size()) - 1);
}

TEST(BinarySvmTest, DecisionSignMatchesSide) {
  const Dataset d = LinearlySeparable(15, 6);
  BinarySvm svm;
  ASSERT_TRUE(FitPositive(svm, d).ok());
  EXPECT_GT(svm.Decision(std::vector<double>{4.0, 4.0}), 0.0);
  EXPECT_LT(svm.Decision(std::vector<double>{-4.0, -4.0}), 0.0);
}

TEST(BinarySvmTest, RbfKernelSolvesNonLinearProblem) {
  // XOR-ish: class +1 in quadrants I/III, -1 in II/IV.
  std::vector<double> values;
  std::vector<int> labels;
  Rng rng(9);
  for (int i = 0; i < 60; ++i) {
    double a = rng.NextDouble(-2.0, 2.0);
    double b = rng.NextDouble(-2.0, 2.0);
    if (std::abs(a) < 0.3 || std::abs(b) < 0.3) continue;  // margin
    values.push_back(a);
    values.push_back(b);
    labels.push_back(a * b > 0 ? 1 : -1);
  }
  const Dataset d(2, values, labels);
  SvmConfig cfg;
  cfg.kernel = SvmKernel::kRbf;
  cfg.rbf_gamma = 1.0;
  cfg.c = 10.0;
  cfg.max_passes = 10;
  cfg.max_iterations = 2000;
  BinarySvm svm(cfg);
  ASSERT_TRUE(FitPositive(svm, d, cfg).ok());
  int correct = 0;
  for (size_t i = 0; i < d.size(); ++i)
    if (Sign(svm, d.row(i)) == d.label(i)) ++correct;
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(d.size()),
            0.85);
}

TEST(BinarySvmTest, DeterministicGivenSeed) {
  const Dataset d = LinearlySeparable(10, 11);
  BinarySvm a, b;
  ASSERT_TRUE(FitPositive(a, d).ok());
  ASSERT_TRUE(FitPositive(b, d).ok());
  const std::vector<double> x = {1.0, 1.0};
  EXPECT_EQ(a.Decision(x), b.Decision(x));
}

TEST(SmoSvmClassifierTest, RejectsEmpty) {
  SmoSvmClassifier svm;
  EXPECT_FALSE(svm.Fit(Dataset()).ok());
}

TEST(SmoSvmClassifierTest, SingleClassPredictsIt) {
  SmoSvmClassifier svm;
  ASSERT_TRUE(svm.Fit(Dataset(1, {1.0}, {9})).ok());
  EXPECT_EQ(PredictedClass(svm, {5.0}), 9);
}

TEST(SmoSvmClassifierTest, MulticlassThreeClusters) {
  Rng rng(13);
  std::vector<double> values;
  std::vector<int> labels;
  const double centers[3][2] = {{0.0, 0.0}, {8.0, 0.0}, {0.0, 8.0}};
  for (int c = 0; c < 3; ++c)
    for (int i = 0; i < 15; ++i) {
      values.push_back(centers[c][0] + rng.NextGaussian(0.0, 0.7));
      values.push_back(centers[c][1] + rng.NextGaussian(0.0, 0.7));
      labels.push_back(c * 10);
    }
  SmoSvmClassifier svm;
  ASSERT_TRUE(svm.Fit(Dataset(2, values, labels)).ok());
  EXPECT_EQ(PredictedClass(svm, {0.0, 0.5}), 0);
  EXPECT_EQ(PredictedClass(svm, {7.5, -0.5}), 10);
  EXPECT_EQ(PredictedClass(svm, {0.5, 8.5}), 20);
  auto scores = Scores(svm, {8.0, 0.0});
  ASSERT_EQ(scores.size(), 3u);
  EXPECT_GT(scores[1], scores[0]);
  EXPECT_GT(scores[1], scores[2]);
}

TEST(SmoSvmClassifierTest, DecisionScoresMatchPinnedValues) {
  // Three classes in ten dimensions, with the linear and the RBF kernel.
  // The literal was computed by the build that copied the training rows
  // into every one-vs-rest machine; sharing one matrix and one Gram must
  // not move a bit.
  const Dataset d = ThreeClassesInTenDims();
  uint64_t hash = kFnv1aBasis;
  for (const SvmKernel kernel : {SvmKernel::kLinear, SvmKernel::kRbf}) {
    SvmConfig cfg;
    cfg.kernel = kernel;
    SmoSvmClassifier svm(cfg);
    ASSERT_TRUE(svm.Fit(d).ok());
    for (size_t i = 0; i < d.size(); ++i)
      for (const double score : Scores(svm, d.row(i)))
        hash = Fnv1aValue(hash, std::bit_cast<uint64_t>(score));
  }
  EXPECT_EQ(hash, 0xea34de887c6335f1ULL) << std::hex << hash;
}

}  // namespace
}  // namespace dehealth
