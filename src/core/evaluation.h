#ifndef DEHEALTH_CORE_EVALUATION_H_
#define DEHEALTH_CORE_EVALUATION_H_

#include <vector>

#include "core/candidate_source.h"
#include "core/refined_da.h"
#include "ml/metrics.h"

namespace dehealth {

/// Tallies refined-DA outcomes against a scenario's ground truth
/// (truth[u] = auxiliary id, or negative for no-true-mapping users).
/// Closed world: read `.Accuracy()`. Open world: also
/// `.FalsePositiveRate()`.
OpenWorldCounts EvaluateRefinedDa(const RefinedDaResult& result,
                                  const std::vector<int>& truth);

/// The rank of each anonymized user's true auxiliary identity t under the
/// source's exact scores: 1 + the auxiliary users that outscore t + those
/// that tie with t and have a smaller id — t's 1-based position in
/// TopK(k) for any k that reaches it. Users whose truth[u] lies outside
/// [0, n2) are skipped; ranks come back in user order. Parallel over
/// users (0 = hardware concurrency), with output independent of the
/// thread count.
std::vector<int> TrueIdentityRanks(const CandidateSource& source,
                                   const std::vector<int>& truth,
                                   int num_threads);

}  // namespace dehealth

#endif  // DEHEALTH_CORE_EVALUATION_H_
