#ifndef DEHEALTH_ML_LINALG_H_
#define DEHEALTH_ML_LINALG_H_

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace dehealth {

/// Minimal dense row-major matrix for the ML substrate (RLSC normal
/// equations, Gram matrices). Not a general-purpose linear-algebra library —
/// just what the classifiers need.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// this^T * v ; v.size() must equal rows().
  std::vector<double> TransposeMatVec(const std::vector<double>& v) const;

  /// Returns this^T * this (cols x cols).
  Matrix Gram() const;

  /// Adds `value` to every diagonal entry (requires square).
  void AddDiagonal(double value);

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// The lower-triangular Cholesky factor L of a symmetric positive-definite
/// A (A = L L^T), which CholeskySolve reuses for any number of right-hand
/// sides. Fails with InvalidArgument when A is not square and
/// FailedPrecondition when it is not (numerically) positive definite.
StatusOr<Matrix> CholeskyFactor(const Matrix& a);

/// Solves A x = b given A's factor `l` from CholeskyFactor: one forward
/// and one back substitution. Fails with InvalidArgument when b's size is
/// not l's.
StatusOr<std::vector<double>> CholeskySolve(const Matrix& l,
                                            const std::vector<double>& b);

/// Euclidean distance between equal-length vectors.
double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b);

/// Dot product of equal-length vectors.
double DotProduct(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace dehealth

#endif  // DEHEALTH_ML_LINALG_H_
