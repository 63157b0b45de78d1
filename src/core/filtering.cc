#include "core/filtering.h"

#include <algorithm>
#include <string>

#include "obs/standard_metrics.h"
#include "obs/trace.h"

namespace dehealth {

StatusOr<FilterResult> FilterCandidates(const CandidateSource& scores,
                                        const CandidateSets& candidates,
                                        const ScoreRange& range,
                                        FilterConfig config) {
  if (config.num_thresholds < 1)
    return Status::InvalidArgument(
        "FilterCandidates: num_thresholds must be >= 1");
  if (config.epsilon < 0.0)
    return Status::InvalidArgument(
        "FilterCandidates: epsilon must be >= 0");
  if (static_cast<size_t>(scores.num_anonymized()) != candidates.size())
    return Status::InvalidArgument(
        "FilterCandidates: similarity/candidate size mismatch");
  const int n2 = scores.num_auxiliary();
  for (const std::vector<int>& list : candidates)
    for (const int v : list)
      if (v < 0 || v >= n2)
        return Status::InvalidArgument(
            "FilterCandidates: candidate id " + std::to_string(v) +
            " out of range [0, " + std::to_string(n2) + ")");

  obs::Span span("core", "filter_candidates");
  span.SetArg("users", static_cast<int64_t>(candidates.size()));
  obs::CoreMetrics& metrics = obs::GetCoreMetrics();
  metrics.filter_runs->Increment();

  FilterResult result;
  result.candidates.resize(candidates.size());
  result.rejected.assign(candidates.size(), false);
  if (candidates.empty()) return result;

  // Global similarity extremes (line 1-2 of Algorithm 2).
  if (range.min > range.max) {  // no auxiliary users at all
    result.rejected.assign(candidates.size(), true);
    metrics.filter_rejected->Increment(candidates.size());
    return result;
  }
  const double s_upper = range.max;
  const double s_lower = std::min(range.min + config.epsilon, s_upper);

  // Threshold vector T_i = s_u - i/(l-1) · (s_u - s_l), largest first.
  const int l = config.num_thresholds;
  result.thresholds.resize(static_cast<size_t>(l));
  for (int i = 0; i < l; ++i) {
    const double frac =
        l == 1 ? 0.0 : static_cast<double>(i) / static_cast<double>(l - 1);
    result.thresholds[static_cast<size_t>(i)] =
        s_upper - frac * (s_upper - s_lower);
  }

  std::vector<double> candidate_scores;
  for (size_t u = 0; u < candidates.size(); ++u) {
    candidate_scores.clear();
    for (const int v : candidates[u])
      candidate_scores.push_back(scores.Score(static_cast<NodeId>(u), v));
    bool kept = false;
    for (double threshold : result.thresholds) {
      std::vector<int> surviving;
      for (size_t i = 0; i < candidates[u].size(); ++i)
        if (candidate_scores[i] >= threshold)
          surviving.push_back(candidates[u][i]);
      if (!surviving.empty()) {
        result.candidates[u] = std::move(surviving);
        kept = true;
        break;
      }
    }
    if (!kept) result.rejected[u] = true;  // u → ⊥ (line 12-13)
  }
  uint64_t rejected = 0;
  for (const bool r : result.rejected) rejected += r ? 1 : 0;
  metrics.filter_rejected->Increment(rejected);
  return result;
}

StatusOr<FilterResult> FilterCandidates(
    const std::vector<std::vector<double>>& similarity,
    const CandidateSets& candidates, FilterConfig config) {
  ScoreRange range;
  for (const std::vector<double>& row : similarity)
    for (const double s : row) range.Add(s);
  return FilterCandidates(DenseCandidateSource(similarity), candidates, range,
                          config);
}

}  // namespace dehealth
