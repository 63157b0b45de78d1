#include "ml/metrics.h"

#include <cassert>
#include <cstddef>

namespace dehealth {

double Accuracy(const std::vector<int>& predicted,
                const std::vector<int>& expected) {
  assert(predicted.size() == expected.size());
  if (predicted.empty()) return 0.0;
  int correct = 0;
  for (size_t i = 0; i < predicted.size(); ++i)
    if (predicted[i] == expected[i]) ++correct;
  return static_cast<double>(correct) / static_cast<double>(predicted.size());
}

double OpenWorldCounts::Accuracy() const {
  if (overlapping == 0) return 0.0;
  return static_cast<double>(correct_overlapping) /
         static_cast<double>(overlapping);
}

double OpenWorldCounts::FalsePositiveRate() const {
  if (non_overlapping == 0) return 0.0;
  return static_cast<double>(false_positives) /
         static_cast<double>(non_overlapping);
}

OpenWorldCounts TallyOpenWorld(const std::vector<int>& predicted,
                               const std::vector<int>& truth) {
  assert(predicted.size() == truth.size());
  OpenWorldCounts counts;
  for (size_t i = 0; i < predicted.size(); ++i) {
    if (truth[i] == kNotPresent) {
      ++counts.non_overlapping;
      if (predicted[i] != kNotPresent) ++counts.false_positives;
    } else {
      ++counts.overlapping;
      if (predicted[i] == truth[i]) ++counts.correct_overlapping;
    }
  }
  return counts;
}

}  // namespace dehealth
