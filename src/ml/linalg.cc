#include "ml/linalg.h"

#include <cassert>
#include <cmath>

namespace dehealth {

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

std::vector<double> Matrix::TransposeMatVec(
    const std::vector<double>& v) const {
  assert(v.size() == rows_);
  std::vector<double> out(cols_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = &data_[r * cols_];
    const double vr = v[r];
    if (vr == 0.0) continue;
    for (size_t c = 0; c < cols_; ++c) out[c] += row[c] * vr;
  }
  return out;
}

Matrix Matrix::Gram() const {
  Matrix g(cols_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = &data_[r * cols_];
    for (size_t i = 0; i < cols_; ++i) {
      if (row[i] == 0.0) continue;
      for (size_t j = i; j < cols_; ++j) g.At(i, j) += row[i] * row[j];
    }
  }
  for (size_t i = 0; i < cols_; ++i)
    for (size_t j = 0; j < i; ++j) g.At(i, j) = g.At(j, i);
  return g;
}

void Matrix::AddDiagonal(double value) {
  assert(rows_ == cols_);
  for (size_t i = 0; i < rows_; ++i) At(i, i) += value;
}

StatusOr<Matrix> CholeskyFactor(const Matrix& a) {
  const size_t n = a.rows();
  if (a.cols() != n)
    return Status::InvalidArgument("CholeskyFactor: matrix not square");
  Matrix l(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = a.At(i, j);
      for (size_t k = 0; k < j; ++k) sum -= l.At(i, k) * l.At(j, k);
      if (i == j) {
        if (sum <= 0.0)
          return Status::FailedPrecondition(
              "CholeskyFactor: matrix not positive definite");
        l.At(i, i) = std::sqrt(sum);
      } else {
        l.At(i, j) = sum / l.At(j, j);
      }
    }
  }
  return l;
}

StatusOr<std::vector<double>> CholeskySolve(const Matrix& l,
                                            const std::vector<double>& b) {
  const size_t n = l.rows();
  if (b.size() != n)
    return Status::InvalidArgument("CholeskySolve: rhs size mismatch");

  // Forward substitution: L y = b.
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (size_t k = 0; k < i; ++k) sum -= l.At(i, k) * y[k];
    y[i] = sum / l.At(i, i);
  }
  // Back substitution: L^T x = y.
  std::vector<double> x(n);
  for (size_t ii = n; ii > 0; --ii) {
    const size_t i = ii - 1;
    double sum = y[i];
    for (size_t k = i + 1; k < n; ++k) sum -= l.At(k, i) * x[k];
    x[i] = sum / l.At(i, i);
  }
  return x;
}

double EuclideanDistance(std::span<const double> a,
                         std::span<const double> b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

double DotProduct(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

}  // namespace dehealth
