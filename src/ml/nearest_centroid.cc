#include "ml/nearest_centroid.h"

#include <cassert>

#include "ml/linalg.h"

namespace dehealth {

Status NearestCentroidClassifier::Fit(Dataset data) {
  if (data.empty())
    return Status::InvalidArgument(
        "NearestCentroidClassifier::Fit: empty dataset");
  classes_ = data.Labels();
  dims_ = data.dims();
  centroids_.assign(classes_.size() * dims_, 0.0);
  std::vector<int> counts(classes_.size(), 0);
  for (size_t i = 0; i < data.size(); ++i) {
    const size_t c = ClassIndex(classes_, data.label(i));
    ++counts[c];
    const std::span<const double> x = data.row(i);
    double* centroid = centroids_.data() + c * dims_;
    for (size_t j = 0; j < dims_; ++j) centroid[j] += x[j];
  }
  for (size_t c = 0; c < classes_.size(); ++c)
    for (size_t j = 0; j < dims_; ++j) centroids_[c * dims_ + j] /= counts[c];
  return Status::OK();
}

void NearestCentroidClassifier::DecisionScores(
    std::span<const double> x, std::span<double> scores) const {
  assert(!classes_.empty() && scores.size() == classes_.size());
  for (size_t c = 0; c < classes_.size(); ++c)
    scores[c] = -EuclideanDistance(
        x, std::span<const double>(centroids_).subspan(c * dims_, dims_));
}

}  // namespace dehealth
