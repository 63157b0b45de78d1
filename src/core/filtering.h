#ifndef DEHEALTH_CORE_FILTERING_H_
#define DEHEALTH_CORE_FILTERING_H_

#include <vector>

#include "common/status.h"
#include "core/candidate_source.h"
#include "core/top_k.h"

namespace dehealth {

/// Parameters of the paper's Algorithm 2 (threshold-vector filtering).
struct FilterConfig {
  double epsilon = 0.01;  // ε: offset above the global minimum similarity
  int num_thresholds = 10;  // l: length of the threshold vector
};

/// Result of filtering: pruned candidate sets plus the users concluded to
/// have no auxiliary counterpart (u → ⊥).
struct FilterResult {
  CandidateSets candidates;
  std::vector<bool> rejected;  // rejected[u]: u → ⊥
  std::vector<double> thresholds;  // the vector T, largest first
};

/// Applies Algorithm 2: builds the threshold vector from `range`, the
/// global max/min over all n1 × n2 similarities (CandidateSource::TopK
/// hands it out from the pass that ranked the candidates), then keeps, per
/// user, the candidates surviving the largest threshold that leaves the
/// set non-empty; a user whose candidates all fall below the smallest
/// threshold is rejected (open-world ⊥). Candidate order (decreasing
/// similarity) is preserved. Reads only Score(u, v) of each user's
/// candidates, never a whole row. InvalidArgument on a bad config, a
/// size mismatch, or a candidate id outside [0, n2).
StatusOr<FilterResult> FilterCandidates(const CandidateSource& scores,
                                        const CandidateSets& candidates,
                                        const ScoreRange& range,
                                        FilterConfig config = {});

/// Matrix variant, the reference the source variant is tested against:
/// takes the range from one serial row-major pass over `similarity`.
StatusOr<FilterResult> FilterCandidates(
    const std::vector<std::vector<double>>& similarity,
    const CandidateSets& candidates, FilterConfig config = {});

}  // namespace dehealth

#endif  // DEHEALTH_CORE_FILTERING_H_
