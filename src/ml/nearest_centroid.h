#ifndef DEHEALTH_ML_NEAREST_CENTROID_H_
#define DEHEALTH_ML_NEAREST_CENTROID_H_

#include <vector>

#include "ml/classifier.h"

namespace dehealth {

/// Nearest-centroid ("NN" in the paper's list of benchmark learners in its
/// user-level form): each class is summarized by its mean feature vector and
/// a query is assigned to the closest centroid. Scores are negated Euclidean
/// distances so "higher is better" holds.
class NearestCentroidClassifier : public Classifier {
 public:
  NearestCentroidClassifier() = default;

  Status Fit(Dataset data) override;
  void DecisionScores(std::span<const double> x,
                      std::span<double> scores) const override;
  const std::vector<int>& classes() const override { return classes_; }

 private:
  std::vector<int> classes_;
  size_t dims_ = 0;
  /// classes_.size() x dims_, row c the centroid of classes_[c].
  std::vector<double> centroids_;
};

}  // namespace dehealth

#endif  // DEHEALTH_ML_NEAREST_CENTROID_H_
