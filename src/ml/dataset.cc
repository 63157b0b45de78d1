#include "ml/dataset.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace dehealth {

Dataset::Dataset(size_t dims, std::vector<double> values,
                 std::vector<int> labels)
    : dims_(dims), values_(std::move(values)), labels_(std::move(labels)) {
  assert(values_.size() == labels_.size() * dims_);
}

std::vector<int> Dataset::Labels() const {
  std::vector<int> labels = labels_;
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  return labels;
}

Status StandardScaler::Fit(const Dataset& data) {
  if (data.empty())
    return Status::InvalidArgument("StandardScaler::Fit: empty dataset");
  const size_t dims = data.dims();
  mean_.assign(dims, 0.0);
  stddev_.assign(dims, 0.0);
  for (size_t i = 0; i < data.size(); ++i) {
    const std::span<const double> x = data.row(i);
    for (size_t d = 0; d < dims; ++d) mean_[d] += x[d];
  }
  const double n = static_cast<double>(data.size());
  for (double& m : mean_) m /= n;
  for (size_t i = 0; i < data.size(); ++i) {
    const std::span<const double> x = data.row(i);
    for (size_t d = 0; d < dims; ++d) {
      const double diff = x[d] - mean_[d];
      stddev_[d] += diff * diff;
    }
  }
  for (double& sd : stddev_) sd = std::sqrt(sd / n);
  return Status::OK();
}

void StandardScaler::Transform(std::span<double> x) const {
  assert(fitted() && x.size() == mean_.size());
  for (size_t d = 0; d < x.size(); ++d) {
    const double sd = stddev_[d];
    x[d] = sd > 0.0 ? (x[d] - mean_[d]) / sd : 0.0;
  }
}

void StandardScaler::Transform(Dataset& data) const {
  for (size_t i = 0; i < data.size(); ++i) Transform(data.row(i));
}

}  // namespace dehealth
