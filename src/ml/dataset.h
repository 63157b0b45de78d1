#ifndef DEHEALTH_ML_DATASET_H_
#define DEHEALTH_ML_DATASET_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/status.h"

namespace dehealth {

/// A labeled dataset: size() rows of dims() features in one row-major
/// array, and one label per row.
class Dataset {
 public:
  Dataset() = default;
  /// labels.size() rows of `dims` features, row-major in `values` (which
  /// must hold labels.size() * dims of them); row i is labelled labels[i].
  Dataset(size_t dims, std::vector<double> values, std::vector<int> labels);

  size_t size() const { return labels_.size(); }
  size_t dims() const { return dims_; }
  bool empty() const { return labels_.empty(); }

  std::span<const double> row(size_t i) const {
    return {values_.data() + i * dims_, dims_};
  }
  std::span<double> row(size_t i) {
    return {values_.data() + i * dims_, dims_};
  }
  int label(size_t i) const { return labels_[i]; }

  /// Distinct labels, sorted ascending.
  std::vector<int> Labels() const;

 private:
  size_t dims_ = 0;
  std::vector<double> values_;
  std::vector<int> labels_;
};

/// Fits mean/stddev on a dataset and standardizes features to zero mean and
/// unit variance (constant features map to 0). The same transform must be
/// applied to test points.
class StandardScaler {
 public:
  StandardScaler() = default;

  /// Learns per-dimension mean and stddev. Fails on an empty dataset.
  Status Fit(const Dataset& data);

  /// Replaces each x[d] by (x[d] - mean) / stddev in place. `x` must match
  /// the fitted dims.
  void Transform(std::span<double> x) const;

  /// Transforms every row of `data` in place (labels untouched).
  void Transform(Dataset& data) const;

  bool fitted() const { return !mean_.empty(); }
  const std::vector<double>& mean() const { return mean_; }

 private:
  std::vector<double> mean_;
  std::vector<double> stddev_;
};

}  // namespace dehealth

#endif  // DEHEALTH_ML_DATASET_H_
