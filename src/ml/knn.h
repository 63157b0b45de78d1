#ifndef DEHEALTH_ML_KNN_H_
#define DEHEALTH_ML_KNN_H_

#include <vector>

#include "ml/classifier.h"

namespace dehealth {

/// k-nearest-neighbors classifier with Euclidean distance and inverse-
/// distance-weighted voting (ties broken by the smaller label). One of the
/// two benchmark learners used in the paper's refined-DA evaluation.
class KnnClassifier : public Classifier {
 public:
  /// `k` must be >= 1; it is capped at the training-set size on Fit.
  explicit KnnClassifier(int k = 5);

  Status Fit(Dataset data) override;
  void DecisionScores(std::span<const double> x,
                      std::span<double> scores) const override;
  const std::vector<int>& classes() const override { return classes_; }

  int k() const { return k_; }

 private:
  int k_;
  Dataset train_;
  std::vector<int> classes_;
};

}  // namespace dehealth

#endif  // DEHEALTH_ML_KNN_H_
