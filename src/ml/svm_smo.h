#ifndef DEHEALTH_ML_SVM_SMO_H_
#define DEHEALTH_ML_SVM_SMO_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "ml/classifier.h"
#include "ml/linalg.h"

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

/// The n x n Gram matrix K(row i, row j) of `data` under `config`'s
/// kernel: computed once and shared by every one-vs-rest machine.
Matrix KernelGram(const Dataset& data, const SvmConfig& config);

/// Binary soft-margin SVM trained with Platt's Sequential Minimal
/// Optimization (the simplified variant with a randomized second-choice
/// heuristic): one class (+1) against the rest (-1).
class BinarySvm {
 public:
  explicit BinarySvm(SvmConfig config = {});

  /// Trains on the rows of `data`, those labelled `positive` as +1 and the
  /// others as -1, given `gram` = KernelGram(data, config). Fails on empty
  /// data or a Gram of another size.
  Status Fit(const Dataset& data, int positive, const Matrix& gram);

  /// Decision value w·x + b (positive => the `positive` class).
  double Decision(std::span<const double> x) const;

 private:
  SvmConfig config_;
  double b_ = 0.0;
  // Linear kernel: the support expansion collapsed into one weight vector
  // for O(dims) decisions.
  std::vector<double> linear_weights_;
  // RBF kernel: the support rows (alpha > 0) in training order, row-major,
  // and their coefficients alpha * y.
  size_t dims_ = 0;
  std::vector<double> support_;
  std::vector<double> coefficients_;
};

/// Multiclass SVM via one-vs-rest binary SMO machines. This is the paper's
/// "SMO" benchmark learner.
class SmoSvmClassifier : public Classifier {
 public:
  explicit SmoSvmClassifier(SvmConfig config = {});

  Status Fit(Dataset data) override;
  void DecisionScores(std::span<const double> x,
                      std::span<double> scores) const override;
  const std::vector<int>& classes() const override { return classes_; }

 private:
  SvmConfig config_;
  std::vector<int> classes_;
  std::vector<BinarySvm> machines_;  // one per class
};

}  // namespace dehealth

#endif  // DEHEALTH_ML_SVM_SMO_H_
