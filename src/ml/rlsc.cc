#include "ml/rlsc.h"

#include <cassert>

#include "ml/linalg.h"

namespace dehealth {

RlscClassifier::RlscClassifier(double lambda) : lambda_(lambda) {
  assert(lambda > 0.0);
}

Status RlscClassifier::Fit(Dataset data) {
  if (data.empty())
    return Status::InvalidArgument("RlscClassifier::Fit: empty dataset");
  classes_ = data.Labels();
  weights_.clear();

  const size_t n = data.size();
  const size_t d = data.dims() + 1;  // +1 bias column

  Matrix x(n, d);
  for (size_t i = 0; i < n; ++i) {
    const std::span<const double> row = data.row(i);
    for (size_t j = 0; j + 1 < d; ++j) x.At(i, j) = row[j];
    x.At(i, d - 1) = 1.0;  // bias
  }
  Matrix gram = x.Gram();
  gram.AddDiagonal(lambda_);
  // Every class solves against the same Gram matrix: factor it once.
  StatusOr<Matrix> factor = CholeskyFactor(gram);
  if (!factor.ok()) return factor.status();

  for (int cls : classes_) {
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) y[i] = data.label(i) == cls ? 1.0 : -1.0;
    const std::vector<double> xty = x.TransposeMatVec(y);
    StatusOr<std::vector<double>> w = CholeskySolve(*factor, xty);
    if (!w.ok()) return w.status();
    weights_.push_back(std::move(w).value());
  }
  return Status::OK();
}

void RlscClassifier::DecisionScores(std::span<const double> x,
                                    std::span<double> scores) const {
  assert(!weights_.empty() && scores.size() == classes_.size());
  for (size_t c = 0; c < classes_.size(); ++c) {
    const std::vector<double>& w = weights_[c];
    assert(x.size() + 1 == w.size());
    double acc = w.back();  // bias
    for (size_t j = 0; j < x.size(); ++j) acc += w[j] * x[j];
    scores[c] = acc;
  }
}

}  // namespace dehealth
