#ifndef DEHEALTH_ML_RLSC_H_
#define DEHEALTH_ML_RLSC_H_

#include <vector>

#include "ml/classifier.h"

namespace dehealth {

/// Regularized Least Squares Classification (one of the benchmark learners
/// named by the paper): one-vs-rest ridge regression onto +/-1 targets in
/// the primal, solved with Cholesky on (X^T X + lambda I). Suited to the
/// refined-DA setting where the feature dimension dominates the sample
/// count is handled by regularization.
class RlscClassifier : public Classifier {
 public:
  explicit RlscClassifier(double lambda = 1.0);

  Status Fit(Dataset data) override;
  void DecisionScores(std::span<const double> x,
                      std::span<double> scores) const override;
  const std::vector<int>& classes() const override { return classes_; }

 private:
  double lambda_;
  std::vector<int> classes_;
  // weights_[c] is the per-class weight vector; bias folded in as the last
  // coefficient against an appended constant-1 feature.
  std::vector<std::vector<double>> weights_;
};

}  // namespace dehealth

#endif  // DEHEALTH_ML_RLSC_H_
