#include "ml/svm_smo.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace dehealth {

namespace {

double Kernel(const SvmConfig& config, std::span<const double> a,
              std::span<const double> b) {
  switch (config.kernel) {
    case SvmKernel::kLinear:
      return DotProduct(a, b);
    case SvmKernel::kRbf: {
      const double d = EuclideanDistance(a, b);
      return std::exp(-config.rbf_gamma * d * d);
    }
  }
  return 0.0;
}

}  // namespace

Matrix KernelGram(const Dataset& data, const SvmConfig& config) {
  // Training sets in the refined-DA phase are small: tens to a few hundred
  // posts.
  const size_t n = data.size();
  Matrix gram(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = i; j < n; ++j)
      gram.At(i, j) = gram.At(j, i) = Kernel(config, data.row(i), data.row(j));
  return gram;
}

BinarySvm::BinarySvm(SvmConfig config) : config_(config) {}

Status BinarySvm::Fit(const Dataset& data, int positive, const Matrix& gram) {
  if (data.empty())
    return Status::InvalidArgument("BinarySvm::Fit: empty training set");
  const size_t n = data.size();
  if (gram.rows() != n || gram.cols() != n)
    return Status::InvalidArgument("BinarySvm::Fit: gram size mismatch");

  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) labels[i] = data.label(i) == positive ? 1 : -1;
  std::vector<double> alpha(n, 0.0);
  b_ = 0.0;
  linear_weights_.clear();
  support_.clear();
  coefficients_.clear();

  auto decision_on_train = [&](size_t i) {
    double acc = b_;
    for (size_t j = 0; j < n; ++j)
      if (alpha[j] > 0.0) acc += alpha[j] * labels[j] * gram.At(i, j);
    return acc;
  };

  Rng rng(config_.seed);
  int passes = 0, iterations = 0;
  const double c = config_.c;
  const double tol = config_.tolerance;
  while (passes < config_.max_passes &&
         iterations < config_.max_iterations) {
    int num_changed = 0;
    for (size_t i = 0; i < n; ++i) {
      const double ei = decision_on_train(i) - labels[i];
      const bool violates =
          (labels[i] * ei < -tol && alpha[i] < c) ||
          (labels[i] * ei > tol && alpha[i] > 0.0);
      if (!violates) continue;

      // Second index: random j != i (simplified Platt heuristic).
      size_t j = static_cast<size_t>(rng.NextBounded(n - 1));
      if (j >= i) ++j;
      const double ej = decision_on_train(j) - labels[j];

      const double ai_old = alpha[i], aj_old = alpha[j];
      double lo, hi;
      if (labels[i] != labels[j]) {
        lo = std::max(0.0, aj_old - ai_old);
        hi = std::min(c, c + aj_old - ai_old);
      } else {
        lo = std::max(0.0, ai_old + aj_old - c);
        hi = std::min(c, ai_old + aj_old);
      }
      if (lo >= hi) continue;

      const double eta = 2.0 * gram.At(i, j) - gram.At(i, i) - gram.At(j, j);
      if (eta >= 0.0) continue;

      double aj = aj_old - labels[j] * (ei - ej) / eta;
      aj = std::clamp(aj, lo, hi);
      if (std::abs(aj - aj_old) < 1e-7) continue;
      const double ai = ai_old + labels[i] * labels[j] * (aj_old - aj);

      alpha[i] = ai;
      alpha[j] = aj;

      const double b1 = b_ - ei - labels[i] * (ai - ai_old) * gram.At(i, i) -
                        labels[j] * (aj - aj_old) * gram.At(i, j);
      const double b2 = b_ - ej - labels[i] * (ai - ai_old) * gram.At(i, j) -
                        labels[j] * (aj - aj_old) * gram.At(j, j);
      if (ai > 0.0 && ai < c) {
        b_ = b1;
      } else if (aj > 0.0 && aj < c) {
        b_ = b2;
      } else {
        b_ = 0.5 * (b1 + b2);
      }
      ++num_changed;
    }
    passes = num_changed == 0 ? passes + 1 : 0;
    ++iterations;
  }

  if (config_.kernel == SvmKernel::kLinear) {
    linear_weights_.assign(data.dims(), 0.0);
    for (size_t j = 0; j < n; ++j) {
      if (alpha[j] == 0.0) continue;
      const double coeff = alpha[j] * labels[j];
      const std::span<const double> row = data.row(j);
      for (size_t d = 0; d < linear_weights_.size(); ++d)
        linear_weights_[d] += coeff * row[d];
    }
  } else {
    dims_ = data.dims();
    for (size_t j = 0; j < n; ++j) {
      if (!(alpha[j] > 0.0)) continue;
      const std::span<const double> row = data.row(j);
      support_.insert(support_.end(), row.begin(), row.end());
      coefficients_.push_back(alpha[j] * labels[j]);
    }
  }
  return Status::OK();
}

double BinarySvm::Decision(std::span<const double> x) const {
  if (config_.kernel == SvmKernel::kLinear)
    return b_ + DotProduct(linear_weights_, x);
  double acc = b_;
  for (size_t j = 0; j < coefficients_.size(); ++j)
    acc += coefficients_[j] *
           Kernel(config_,
                  std::span<const double>(support_).subspan(j * dims_, dims_),
                  x);
  return acc;
}

SmoSvmClassifier::SmoSvmClassifier(SvmConfig config) : config_(config) {}

Status SmoSvmClassifier::Fit(Dataset data) {
  if (data.empty())
    return Status::InvalidArgument("SmoSvmClassifier::Fit: empty dataset");
  classes_ = data.Labels();
  machines_.clear();
  if (classes_.size() == 1) return Status::OK();  // degenerate: constant

  const Matrix gram = KernelGram(data, config_);
  machines_.reserve(classes_.size());
  for (size_t c = 0; c < classes_.size(); ++c) {
    SvmConfig cfg = config_;
    cfg.seed = config_.seed + c;  // decorrelate the per-class SMO runs
    BinarySvm machine(cfg);
    DEHEALTH_RETURN_IF_ERROR(machine.Fit(data, classes_[c], gram));
    machines_.push_back(std::move(machine));
  }
  return Status::OK();
}

void SmoSvmClassifier::DecisionScores(std::span<const double> x,
                                      std::span<double> scores) const {
  assert(scores.size() == classes_.size());
  if (machines_.empty()) {
    // Single-class fallback.
    std::fill(scores.begin(), scores.end(), 0.0);
    return;
  }
  for (size_t c = 0; c < classes_.size(); ++c)
    scores[c] = machines_[c].Decision(x);
}

}  // namespace dehealth
