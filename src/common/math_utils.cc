#include "common/math_utils.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace dehealth {

double CosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b) {
  // Mismatched lengths compare as if the shorter vector carried trailing
  // zeros: the pad contributes nothing to the dot product or the shorter
  // norm, while the longer vector's tail still counts toward its own norm.
  // (Hop/NCS vectors from graphs with different landmark counts hit this
  // path; see the length-mismatch tests in math_utils_test.cc.)
  const size_t n = std::max(a.size(), b.size());
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double x = i < a.size() ? a[i] : 0.0;
    const double y = i < b.size() ? b[i] : 0.0;
    dot += x * y;
    na += x * x;
    nb += y * y;
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

double MinMaxRatio(double a, double b) {
  assert(a >= 0.0 && b >= 0.0);
  const double mx = std::max(a, b);
  if (mx == 0.0) return 1.0;
  return std::min(a, b) / mx;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Variance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = Mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - m) * (x - m);
  return acc / static_cast<double>(v.size());
}

double StdDev(const std::vector<double>& v) { return std::sqrt(Variance(v)); }

SummaryStats Summarize(const std::vector<double>& v) {
  SummaryStats s;
  s.count = v.size();
  if (v.empty()) return s;
  s.mean = Mean(v);
  s.stddev = StdDev(v);
  s.min = *std::min_element(v.begin(), v.end());
  s.max = *std::max_element(v.begin(), v.end());
  return s;
}

StatusOr<std::vector<double>> EmpiricalCdf(
    const std::vector<double>& values, const std::vector<double>& thresholds) {
  // Checked in every build type: a Release build used to sail past the old
  // `assert` and hand back fractions that no longer lined up with the
  // thresholds the caller thought it asked about.
  if (!std::is_sorted(thresholds.begin(), thresholds.end()))
    return Status::InvalidArgument(
        "EmpiricalCdf: thresholds must be sorted ascending");
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> out(thresholds.size(), 0.0);
  if (sorted.empty()) return out;
  for (size_t i = 0; i < thresholds.size(); ++i) {
    auto it = std::upper_bound(sorted.begin(), sorted.end(), thresholds[i]);
    out[i] = static_cast<double>(it - sorted.begin()) /
             static_cast<double>(sorted.size());
  }
  return out;
}

Histogram::Histogram(double lo, double hi, size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  assert(hi > lo && bins > 0);
}

void Histogram::Add(double value) {
  // Clamp in floating point BEFORE the integer cast: the old code computed
  // the bucket as a `long` first, so a NaN value was undefined behavior on
  // the cast and a hugely out-of-range `t` (e.g. +inf) was implementation-
  // defined. NaN routes to the first bucket, mirroring
  // LatencyHistogram::Record's "non-positive -> first bucket" contract.
  const double scaled =
      (value - lo_) / (hi_ - lo_) * static_cast<double>(counts_.size());
  size_t bin = 0;
  if (std::isnan(scaled) || scaled <= 0.0) {
    bin = 0;
  } else if (scaled >= static_cast<double>(counts_.size())) {
    bin = counts_.size() - 1;
  } else {
    bin = static_cast<size_t>(scaled);
    if (bin >= counts_.size()) bin = counts_.size() - 1;
  }
  ++counts_[bin];
  ++total_;
}

double Histogram::Fraction(size_t bin) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_[bin]) / static_cast<double>(total_);
}

double Clamp(double x, double lo, double hi) {
  return std::max(lo, std::min(hi, x));
}

}  // namespace dehealth
