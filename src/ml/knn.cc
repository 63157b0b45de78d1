#include "ml/knn.h"

#include <algorithm>
#include <cassert>

#include "ml/linalg.h"

namespace dehealth {

KnnClassifier::KnnClassifier(int k) : k_(k) { assert(k >= 1); }

Status KnnClassifier::Fit(Dataset data) {
  if (data.empty())
    return Status::InvalidArgument("KnnClassifier::Fit: empty dataset");
  classes_ = data.Labels();
  train_ = std::move(data);
  if (k_ > static_cast<int>(train_.size()))
    k_ = static_cast<int>(train_.size());
  return Status::OK();
}

void KnnClassifier::DecisionScores(std::span<const double> x,
                                   std::span<double> scores) const {
  assert(!train_.empty() && x.size() == train_.dims() &&
         scores.size() == classes_.size());
  // Distances to all training points; take the k nearest.
  std::vector<std::pair<double, int>> dist_label;
  dist_label.reserve(train_.size());
  for (size_t i = 0; i < train_.size(); ++i)
    dist_label.emplace_back(EuclideanDistance(x, train_.row(i)),
                            train_.label(i));
  const size_t k = static_cast<size_t>(k_);
  std::partial_sort(dist_label.begin(), dist_label.begin() + k,
                    dist_label.end());

  // Inverse-distance-weighted votes per class.
  std::fill(scores.begin(), scores.end(), 0.0);
  for (size_t i = 0; i < k; ++i)
    scores[ClassIndex(classes_, dist_label[i].second)] +=
        1.0 / (1e-9 + dist_label[i].first);
}

}  // namespace dehealth
