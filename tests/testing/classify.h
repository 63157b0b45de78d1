#ifndef DEHEALTH_TESTS_TESTING_CLASSIFY_H_
#define DEHEALTH_TESTS_TESTING_CLASSIFY_H_

#include <algorithm>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/rng.h"
#include "ml/classifier.h"

namespace dehealth {

/// `classifier`'s decision scores for `x`, one per class.
inline std::vector<double> Scores(const Classifier& classifier,
                                  std::span<const double> x) {
  std::vector<double> scores(classifier.classes().size());
  classifier.DecisionScores(x, scores);
  return scores;
}
inline std::vector<double> Scores(const Classifier& classifier,
                                  std::initializer_list<double> x) {
  return Scores(classifier, std::span<const double>(x.begin(), x.size()));
}

/// The class whose decision score for `x` is highest (the first on ties),
/// as refined DA's per-post argmax picks it.
inline int PredictedClass(const Classifier& classifier,
                          std::span<const double> x) {
  const std::vector<double> scores = Scores(classifier, x);
  return classifier.classes()[static_cast<size_t>(
      std::max_element(scores.begin(), scores.end()) - scores.begin())];
}
inline int PredictedClass(const Classifier& classifier,
                          std::initializer_list<double> x) {
  return PredictedClass(classifier,
                        std::span<const double>(x.begin(), x.size()));
}

/// Three classes in ten dimensions, 24 rows: the data every learner's
/// DecisionScoresMatchPinnedValues test hashes scores over.
inline Dataset ThreeClassesInTenDims() {
  Rng rng(37);
  std::vector<double> values;
  std::vector<int> labels;
  for (int i = 0; i < 24; ++i) {
    std::vector<double> x(10);
    for (double& v : x) v = rng.NextGaussian();
    x[static_cast<size_t>(i % 3)] += 3.0;
    values.insert(values.end(), x.begin(), x.end());
    labels.push_back(i % 3);
  }
  return Dataset(10, std::move(values), std::move(labels));
}

}  // namespace dehealth

#endif  // DEHEALTH_TESTS_TESTING_CLASSIFY_H_
