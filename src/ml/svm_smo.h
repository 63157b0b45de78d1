#ifndef DEHEALTH_ML_SVM_SMO_H_
#define DEHEALTH_ML_SVM_SMO_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "ml/classifier.h"

namespace dehealth {

/// Kernel choice for the SMO SVM.
enum class SvmKernel {
  kLinear,
  kRbf,
};

/// Hyperparameters of the SMO-trained SVM.
struct SvmConfig {
  SvmKernel kernel = SvmKernel::kLinear;
  double c = 1.0;            // soft-margin penalty
  double rbf_gamma = 0.1;    // RBF kernel width (kRbf only)
  double tolerance = 1e-3;   // KKT violation tolerance
  int max_passes = 5;        // passes without alpha changes before stopping
  int max_iterations = 500;  // hard cap on outer loops
  uint64_t seed = 1;         // second-index heuristic randomization
};

/// Binary soft-margin SVM trained with Platt's Sequential Minimal
/// Optimization (the simplified variant with a randomized second-choice
/// heuristic). Labels are +1 / -1.
class BinarySvm {
 public:
  explicit BinarySvm(SvmConfig config = {});

  /// Trains on `features` (rows) with `labels[i]` in {+1, -1}.
  Status Fit(const std::vector<std::vector<double>>& features,
             const std::vector<int>& labels);

  /// Same, with a caller-precomputed Gram matrix (gram[i][j] =
  /// K(features[i], features[j])). Lets one-vs-rest multiclass training
  /// share a single kernel evaluation pass.
  Status FitWithGram(const std::vector<std::vector<double>>& features,
                     const std::vector<int>& labels,
                     const std::vector<std::vector<double>>& gram);

  /// Decision value w·x + b (positive => class +1).
  double Decision(const std::vector<double>& x) const;

  int PredictSign(const std::vector<double>& x) const {
    return Decision(x) >= 0.0 ? 1 : -1;
  }

  const SvmConfig& config() const { return config_; }

 private:
  double Kernel(const std::vector<double>& a,
                const std::vector<double>& b) const;

  SvmConfig config_;
  std::vector<std::vector<double>> support_;  // training rows (all kept)
  std::vector<int> labels_;
  std::vector<double> alpha_;
  double b_ = 0.0;
  // Linear kernel only: collapsed weight vector for O(dims) decisions.
  std::vector<double> linear_weights_;
};

/// Multiclass SVM via one-vs-rest binary SMO machines. This is the paper's
/// "SMO" benchmark learner.
class SmoSvmClassifier : public Classifier {
 public:
  explicit SmoSvmClassifier(SvmConfig config = {});

  Status Fit(const Dataset& data) override;
  int Predict(const std::vector<double>& x) const override;
  std::vector<double> DecisionScores(
      const std::vector<double>& x) const override;
  const std::vector<int>& classes() const override { return classes_; }

 private:
  SvmConfig config_;
  std::vector<int> classes_;
  std::vector<BinarySvm> machines_;  // one per class
};

}  // namespace dehealth

#endif  // DEHEALTH_ML_SVM_SMO_H_
