#include "ml/svm_smo.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dehealth {
namespace {

std::pair<std::vector<std::vector<double>>, std::vector<int>>
LinearlySeparable(int per_class, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < per_class; ++i) {
    x.push_back({rng.NextGaussian(-3.0, 0.8), rng.NextGaussian(-3.0, 0.8)});
    y.push_back(-1);
    x.push_back({rng.NextGaussian(3.0, 0.8), rng.NextGaussian(3.0, 0.8)});
    y.push_back(1);
  }
  return {x, y};
}

TEST(BinarySvmTest, RejectsBadInputs) {
  BinarySvm svm;
  EXPECT_FALSE(svm.Fit({}, {}).ok());
  EXPECT_FALSE(svm.Fit({{1.0}}, {1, -1}).ok());
  EXPECT_FALSE(svm.Fit({{1.0}}, {2}).ok());  // labels must be +/-1
}

TEST(BinarySvmTest, SeparatesLinearClasses) {
  auto [x, y] = LinearlySeparable(20, 5);
  BinarySvm svm;
  ASSERT_TRUE(svm.Fit(x, y).ok());
  int correct = 0;
  for (size_t i = 0; i < x.size(); ++i)
    if (svm.PredictSign(x[i]) == y[i]) ++correct;
  EXPECT_GE(correct, static_cast<int>(x.size()) - 1);
}

TEST(BinarySvmTest, DecisionSignMatchesSide) {
  auto [x, y] = LinearlySeparable(15, 6);
  BinarySvm svm;
  ASSERT_TRUE(svm.Fit(x, y).ok());
  EXPECT_GT(svm.Decision({4.0, 4.0}), 0.0);
  EXPECT_LT(svm.Decision({-4.0, -4.0}), 0.0);
}

TEST(BinarySvmTest, RbfKernelSolvesNonLinearProblem) {
  // XOR-ish: class +1 in quadrants I/III, -1 in II/IV.
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  Rng rng(9);
  for (int i = 0; i < 60; ++i) {
    double a = rng.NextDouble(-2.0, 2.0);
    double b = rng.NextDouble(-2.0, 2.0);
    if (std::abs(a) < 0.3 || std::abs(b) < 0.3) continue;  // margin
    x.push_back({a, b});
    y.push_back(a * b > 0 ? 1 : -1);
  }
  SvmConfig cfg;
  cfg.kernel = SvmKernel::kRbf;
  cfg.rbf_gamma = 1.0;
  cfg.c = 10.0;
  cfg.max_passes = 10;
  cfg.max_iterations = 2000;
  BinarySvm svm(cfg);
  ASSERT_TRUE(svm.Fit(x, y).ok());
  int correct = 0;
  for (size_t i = 0; i < x.size(); ++i)
    if (svm.PredictSign(x[i]) == y[i]) ++correct;
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(x.size()),
            0.85);
}

TEST(BinarySvmTest, DeterministicGivenSeed) {
  auto [x, y] = LinearlySeparable(10, 11);
  BinarySvm a, b;
  ASSERT_TRUE(a.Fit(x, y).ok());
  ASSERT_TRUE(b.Fit(x, y).ok());
  EXPECT_EQ(a.Decision({1.0, 1.0}), b.Decision({1.0, 1.0}));
}

TEST(SmoSvmClassifierTest, RejectsEmpty) {
  SmoSvmClassifier svm;
  Dataset d;
  EXPECT_FALSE(svm.Fit(d).ok());
}

TEST(SmoSvmClassifierTest, SingleClassPredictsIt) {
  Dataset d;
  ASSERT_TRUE(d.Add({{1.0}, 9}).ok());
  SmoSvmClassifier svm;
  ASSERT_TRUE(svm.Fit(d).ok());
  EXPECT_EQ(svm.Predict({5.0}), 9);
}

TEST(SmoSvmClassifierTest, MulticlassThreeClusters) {
  Rng rng(13);
  Dataset d;
  const double centers[3][2] = {{0.0, 0.0}, {8.0, 0.0}, {0.0, 8.0}};
  for (int c = 0; c < 3; ++c)
    for (int i = 0; i < 15; ++i)
      ASSERT_TRUE(
          d.Add({{centers[c][0] + rng.NextGaussian(0.0, 0.7),
                  centers[c][1] + rng.NextGaussian(0.0, 0.7)},
                 c * 10})
              .ok());
  SmoSvmClassifier svm;
  ASSERT_TRUE(svm.Fit(d).ok());
  EXPECT_EQ(svm.Predict({0.0, 0.5}), 0);
  EXPECT_EQ(svm.Predict({7.5, -0.5}), 10);
  EXPECT_EQ(svm.Predict({0.5, 8.5}), 20);
  auto scores = svm.DecisionScores({8.0, 0.0});
  ASSERT_EQ(scores.size(), 3u);
  EXPECT_GT(scores[1], scores[0]);
  EXPECT_GT(scores[1], scores[2]);
}

}  // namespace
}  // namespace dehealth
