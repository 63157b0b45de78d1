#include "ml/svm_smo.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "ml/linalg.h"

namespace dehealth {

BinarySvm::BinarySvm(SvmConfig config) : config_(config) {}

double BinarySvm::Kernel(const std::vector<double>& a,
                         const std::vector<double>& b) const {
  switch (config_.kernel) {
    case SvmKernel::kLinear:
      return DotProduct(a, b);
    case SvmKernel::kRbf: {
      const double d = EuclideanDistance(a, b);
      return std::exp(-config_.rbf_gamma * d * d);
    }
  }
  return 0.0;
}

Status BinarySvm::Fit(const std::vector<std::vector<double>>& features,
                      const std::vector<int>& labels) {
  if (features.empty())
    return Status::InvalidArgument("BinarySvm::Fit: empty training set");
  // Precompute the Gram matrix (training sets in the refined-DA phase are
  // small: tens to a few hundred posts).
  const size_t n = features.size();
  std::vector<std::vector<double>> gram(n, std::vector<double>(n));
  for (size_t i = 0; i < n; ++i)
    for (size_t j = i; j < n; ++j)
      gram[i][j] = gram[j][i] = Kernel(features[i], features[j]);
  return FitWithGram(features, labels, gram);
}

Status BinarySvm::FitWithGram(
    const std::vector<std::vector<double>>& features,
    const std::vector<int>& labels,
    const std::vector<std::vector<double>>& gram) {
  if (features.empty())
    return Status::InvalidArgument("BinarySvm::Fit: empty training set");
  if (features.size() != labels.size())
    return Status::InvalidArgument("BinarySvm::Fit: label count mismatch");
  if (gram.size() != features.size())
    return Status::InvalidArgument("BinarySvm::Fit: gram size mismatch");
  for (int y : labels)
    if (y != 1 && y != -1)
      return Status::InvalidArgument("BinarySvm::Fit: labels must be +/-1");

  const size_t n = features.size();
  support_ = features;
  labels_ = labels;
  alpha_.assign(n, 0.0);
  b_ = 0.0;
  linear_weights_.clear();

  auto decision_on_train = [&](size_t i) {
    double acc = b_;
    for (size_t j = 0; j < n; ++j)
      if (alpha_[j] > 0.0) acc += alpha_[j] * labels_[j] * gram[i][j];
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
      const double ei = decision_on_train(i) - labels_[i];
      const bool violates =
          (labels_[i] * ei < -tol && alpha_[i] < c) ||
          (labels_[i] * ei > tol && alpha_[i] > 0.0);
      if (!violates) continue;

      // Second index: random j != i (simplified Platt heuristic).
      size_t j = static_cast<size_t>(rng.NextBounded(n - 1));
      if (j >= i) ++j;
      const double ej = decision_on_train(j) - labels_[j];

      const double ai_old = alpha_[i], aj_old = alpha_[j];
      double lo, hi;
      if (labels_[i] != labels_[j]) {
        lo = std::max(0.0, aj_old - ai_old);
        hi = std::min(c, c + aj_old - ai_old);
      } else {
        lo = std::max(0.0, ai_old + aj_old - c);
        hi = std::min(c, ai_old + aj_old);
      }
      if (lo >= hi) continue;

      const double eta = 2.0 * gram[i][j] - gram[i][i] - gram[j][j];
      if (eta >= 0.0) continue;

      double aj = aj_old - labels_[j] * (ei - ej) / eta;
      aj = std::clamp(aj, lo, hi);
      if (std::abs(aj - aj_old) < 1e-7) continue;
      const double ai =
          ai_old + labels_[i] * labels_[j] * (aj_old - aj);

      alpha_[i] = ai;
      alpha_[j] = aj;

      const double b1 = b_ - ei - labels_[i] * (ai - ai_old) * gram[i][i] -
                        labels_[j] * (aj - aj_old) * gram[i][j];
      const double b2 = b_ - ej - labels_[i] * (ai - ai_old) * gram[i][j] -
                        labels_[j] * (aj - aj_old) * gram[j][j];
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

  // Linear kernel: collapse the support expansion into a weight vector so
  // decisions cost O(dims) instead of O(n_support * dims).
  if (config_.kernel == SvmKernel::kLinear) {
    linear_weights_.assign(support_[0].size(), 0.0);
    for (size_t j = 0; j < n; ++j) {
      if (alpha_[j] == 0.0) continue;
      const double coeff = alpha_[j] * labels_[j];
      for (size_t d = 0; d < linear_weights_.size(); ++d)
        linear_weights_[d] += coeff * support_[j][d];
    }
  }
  return Status::OK();
}

double BinarySvm::Decision(const std::vector<double>& x) const {
  if (!linear_weights_.empty()) return b_ + DotProduct(linear_weights_, x);
  double acc = b_;
  for (size_t j = 0; j < support_.size(); ++j)
    if (alpha_[j] > 0.0)
      acc += alpha_[j] * labels_[j] * Kernel(support_[j], x);
  return acc;
}

SmoSvmClassifier::SmoSvmClassifier(SvmConfig config) : config_(config) {}

Status SmoSvmClassifier::Fit(const Dataset& data) {
  if (data.empty())
    return Status::InvalidArgument("SmoSvmClassifier::Fit: empty dataset");
  classes_ = data.Labels();
  machines_.clear();
  machines_.reserve(classes_.size());

  std::vector<std::vector<double>> features;
  features.reserve(data.size());
  for (const Sample& s : data.samples()) features.push_back(s.features);

  if (classes_.size() == 1) return Status::OK();  // degenerate: constant

  // One shared Gram pass for all one-vs-rest machines.
  const size_t n = features.size();
  std::vector<std::vector<double>> gram(n, std::vector<double>(n));
  {
    for (size_t i = 0; i < n; ++i)
      for (size_t j = i; j < n; ++j)
        gram[i][j] = gram[j][i] =
            config_.kernel == SvmKernel::kLinear
                ? DotProduct(features[i], features[j])
                : [&] {
                    const double d =
                        EuclideanDistance(features[i], features[j]);
                    return std::exp(-config_.rbf_gamma * d * d);
                  }();
  }

  for (size_t c = 0; c < classes_.size(); ++c) {
    std::vector<int> binary_labels(data.size());
    for (size_t i = 0; i < data.size(); ++i)
      binary_labels[i] = data[i].label == classes_[c] ? 1 : -1;
    SvmConfig cfg = config_;
    cfg.seed = config_.seed + c;  // decorrelate the per-class SMO runs
    BinarySvm machine(cfg);
    DEHEALTH_RETURN_IF_ERROR(machine.FitWithGram(features, binary_labels, gram));
    machines_.push_back(std::move(machine));
  }
  return Status::OK();
}

std::vector<double> SmoSvmClassifier::DecisionScores(
    const std::vector<double>& x) const {
  if (machines_.empty()) {
    // Single-class fallback.
    return std::vector<double>(classes_.size(), 0.0);
  }
  std::vector<double> scores(classes_.size());
  for (size_t c = 0; c < classes_.size(); ++c)
    scores[c] = machines_[c].Decision(x);
  return scores;
}

int SmoSvmClassifier::Predict(const std::vector<double>& x) const {
  assert(!classes_.empty());
  if (classes_.size() == 1) return classes_[0];
  const std::vector<double> scores = DecisionScores(x);
  size_t best = 0;
  for (size_t c = 1; c < scores.size(); ++c)
    if (scores[c] > scores[best]) best = c;
  return classes_[best];
}

}  // namespace dehealth
