#ifndef DEHEALTH_ML_CLASSIFIER_H_
#define DEHEALTH_ML_CLASSIFIER_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "common/status.h"
#include "ml/dataset.h"

namespace dehealth {

/// Common interface of the benchmark learners used in De-Health's refined-DA
/// phase (KNN, SMO SVM, RLSC, nearest centroid).
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Trains on `data`, which the learner takes over: KNN keeps its rows,
  /// the others free them when Fit returns. Fails on empty data
  /// (single-class data is accepted and predicts that class).
  virtual Status Fit(Dataset data) = 0;

  /// Writes the per-class decision scores of `x` (dims must match the
  /// training data) into `scores`, one per class in `classes()` order;
  /// higher is more confident. Refined DA sums them, or takes their
  /// argmax, over a user's posts.
  virtual void DecisionScores(std::span<const double> x,
                              std::span<double> scores) const = 0;

  /// Class labels in score order (ascending).
  virtual const std::vector<int>& classes() const = 0;
};

/// The position of `label` in the ascending `classes`, which must hold it.
inline size_t ClassIndex(const std::vector<int>& classes, int label) {
  return static_cast<size_t>(
      std::lower_bound(classes.begin(), classes.end(), label) -
      classes.begin());
}

}  // namespace dehealth

#endif  // DEHEALTH_ML_CLASSIFIER_H_
