#ifndef DEHEALTH_ML_METRICS_H_
#define DEHEALTH_ML_METRICS_H_

#include <cstddef>
#include <vector>

namespace dehealth {

/// Fraction of positions where `predicted[i] == expected[i]`.
/// Vectors must have equal length; 0 for empty input.
double Accuracy(const std::vector<int>& predicted,
                const std::vector<int>& expected);

/// Open-world DA accounting, following Section V-B of the paper.
/// `kNotPresent` encodes the paper's ⊥ ("the user does not appear in the
/// auxiliary data").
inline constexpr int kNotPresent = -1;

struct OpenWorldCounts {
  int overlapping = 0;          // users whose true mapping exists (Y)
  int correct_overlapping = 0;  // de-anonymized to the true mapping (Yc)
  int non_overlapping = 0;      // users without a true mapping
  int false_positives = 0;      // non-overlapping users mapped to some user

  /// Accuracy = Yc / Y (0 when Y == 0).
  double Accuracy() const;

  /// FP rate = false positives / non-overlapping users (0 when none).
  double FalsePositiveRate() const;
};

/// Tallies open-world outcomes. For each user i, `truth[i]` is the true
/// auxiliary label or kNotPresent; `predicted[i]` is the classifier output
/// or kNotPresent (rejected/filtered).
OpenWorldCounts TallyOpenWorld(const std::vector<int>& predicted,
                               const std::vector<int>& truth);

}  // namespace dehealth

#endif  // DEHEALTH_ML_METRICS_H_
