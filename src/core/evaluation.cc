#include "core/evaluation.h"

#include <algorithm>
#include <cassert>

#include "common/parallel.h"

namespace dehealth {

OpenWorldCounts EvaluateRefinedDa(const RefinedDaResult& result,
                                  const std::vector<int>& truth) {
  assert(result.predictions.size() == truth.size());
  // Normalize "no true mapping" markers to kNotPresent.
  std::vector<int> normalized_truth(truth.size());
  for (size_t i = 0; i < truth.size(); ++i)
    normalized_truth[i] = truth[i] < 0 ? kNotPresent : truth[i];
  return TallyOpenWorld(result.predictions, normalized_truth);
}

std::vector<int> TrueIdentityRanks(const CandidateSource& source,
                                   const std::vector<int>& truth,
                                   int num_threads) {
  const size_t n1 = std::min(truth.size(),
                             static_cast<size_t>(source.num_anonymized()));
  const int n2 = source.num_auxiliary();
  // One slot per user (0 = no true identity in the universe), written only
  // by that user's task.
  std::vector<int> slots(n1, 0);
  ParallelFor(
      0, static_cast<int64_t>(n1),
      [&](int64_t ui) {
        const auto u = static_cast<size_t>(ui);
        const int t = truth[u];
        if (t < 0 || t >= n2) return;
        std::vector<double> scratch;
        const std::vector<double>& row =
            source.Row(static_cast<NodeId>(u), &scratch);
        const double true_score = row[static_cast<size_t>(t)];
        int rank = 1;
        for (int v = 0; v < n2; ++v) {
          const double s = row[static_cast<size_t>(v)];
          if (s > true_score || (s == true_score && v < t)) ++rank;
        }
        slots[u] = rank;
      },
      num_threads);
  std::vector<int> ranks;
  for (const int rank : slots)
    if (rank > 0) ranks.push_back(rank);
  return ranks;
}

}  // namespace dehealth
