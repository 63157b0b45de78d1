#ifndef DEHEALTH_COMMON_MATH_UTILS_H_
#define DEHEALTH_COMMON_MATH_UTILS_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/status.h"

namespace dehealth {

/// Cosine similarity between two vectors. If lengths differ, the shorter is
/// implicitly zero-padded (the paper's convention for NCS vectors). Returns 0
/// when either vector has zero norm.
double CosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b);

/// Ratio min/max with the convention 0/0 == 1 (identical "no signal") and
/// x/0 or 0/x == 0 for x > 0. Used by the degree-similarity term.
double MinMaxRatio(double a, double b);

/// Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& v);

/// Population variance; 0 for fewer than 2 elements.
double Variance(const std::vector<double>& v);

double StdDev(const std::vector<double>& v);

/// Summary statistics over a sample.
struct SummaryStats {
  size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

SummaryStats Summarize(const std::vector<double>& v);

/// Empirical CDF evaluated at caller-supplied thresholds:
/// result[i] = fraction of `values` <= thresholds[i].
/// `thresholds` must be sorted ascending — verified in every build type;
/// unsorted thresholds fail with InvalidArgument instead of silently
/// returning fractions that don't line up with the caller's axis.
StatusOr<std::vector<double>> EmpiricalCdf(
    const std::vector<double>& values, const std::vector<double>& thresholds);

/// A fixed-width histogram over [lo, hi) with `bins` buckets; values outside
/// the range are clamped into the first/last bucket.
class Histogram {
 public:
  Histogram(double lo, double hi, size_t bins);

  void Add(double value);

  size_t bin_count() const { return counts_.size(); }
  size_t count(size_t bin) const { return counts_[bin]; }
  size_t total() const { return total_; }
  /// Fraction of all observations in bucket `bin` (0 if empty histogram).
  double Fraction(size_t bin) const;

 private:
  double lo_;
  double hi_;
  std::vector<size_t> counts_;
  size_t total_ = 0;
};

/// Clamps x into [lo, hi].
double Clamp(double x, double lo, double hi);

}  // namespace dehealth

#endif  // DEHEALTH_COMMON_MATH_UTILS_H_
