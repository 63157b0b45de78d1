#include "core/de_health.h"

#include <numeric>

#include "common/parallel.h"

namespace dehealth {

DeHealth::DeHealth(DeHealthConfig config) : config_(config) {}

namespace {

/// Phases 1b-2 against an arbitrary score source; fills every result field
/// except `similarity`, which only Run sets.
Status RunPhases(const DeHealth& attack, const UdaGraph& anonymized,
                 const UdaGraph& auxiliary, const CandidateSource& scores,
                 DeHealthResult& result) {
  // Phases 1b-1c: candidate selection + optional filtering.
  StatusOr<DeHealthCandidates> selected = attack.SelectCandidates(scores);
  if (!selected.ok()) return selected.status();
  result.candidates = std::move(selected->candidates);
  result.rejected = std::move(selected->rejected);

  // Phase 2: refined DA (lines 7-9).
  const DeHealthConfig& config = attack.config();
  RefinedDaConfig refined_config = config.refined;
  refined_config.num_threads = config.num_threads;
  StatusOr<RefinedDaResult> refined =
      RunRefinedDa(anonymized, auxiliary, result.candidates,
                   &result.rejected, scores, refined_config);
  if (!refined.ok()) return refined.status();
  result.refined = std::move(refined).value();
  return Status();
}

}  // namespace

StatusOr<DeHealthCandidates> DeHealth::SelectCandidates(
    const CandidateSource& scores, DeHealthCandidates* raw) const {
  DeHealthCandidates state;

  // Phase 1b: Top-K candidate sets (Algorithm 1, line 5). Graph matching
  // needs the whole matrix at once; direct selection also hands out the
  // global score range the filter needs.
  ScoreRange range;
  std::vector<std::vector<double>> formed;
  const std::vector<std::vector<double>>* matrix = scores.DenseMatrix();
  StatusOr<CandidateSets> candidates = CandidateSets{};
  if (config_.selection == CandidateSelection::kGraphMatching) {
    if (matrix == nullptr) {
      formed.resize(static_cast<size_t>(scores.num_anonymized()));
      ParallelFor(
          0, static_cast<int64_t>(formed.size()),
          [&](int64_t u) {
            std::vector<double>& row = formed[static_cast<size_t>(u)];
            const std::vector<double>& scored =
                scores.Row(static_cast<NodeId>(u), &row);
            if (&scored != &row) row = scored;
          },
          config_.num_threads);
      matrix = &formed;
    }
    candidates = SelectTopKCandidates(*matrix, config_.top_k,
                                      config_.selection, config_.num_threads);
  } else {
    candidates = scores.TopK(config_.top_k, config_.num_threads,
                             config_.enable_filtering ? &range : nullptr);
  }
  if (!candidates.ok()) return candidates.status();
  state.candidates = std::move(candidates).value();
  state.rejected.assign(state.candidates.size(), false);
  if (raw != nullptr) *raw = state;

  // Phase 1c: optional threshold-vector filtering (line 6, Algorithm 2).
  // Thresholds are global (max/min over all scores), which is why this
  // belongs to the precomputed state and not the per-query path.
  if (config_.enable_filtering) {
    StatusOr<FilterResult> filtered =
        config_.selection == CandidateSelection::kGraphMatching
            ? FilterCandidates(*matrix, state.candidates, config_.filter)
            : FilterCandidates(scores, state.candidates, range,
                               config_.filter);
    if (!filtered.ok()) return filtered.status();
    state.candidates = std::move(filtered->candidates);
    state.rejected = std::move(filtered->rejected);
  }
  return state;
}

StatusOr<RefinedDaResult> DeHealth::RefineUsers(
    const UdaGraph& anonymized, const UdaGraph& auxiliary,
    const CandidateSource& scores, const DeHealthCandidates& state,
    const std::vector<int>& users) const {
  RefinedDaConfig refined_config = config_.refined;
  refined_config.num_threads = config_.num_threads;
  return RunRefinedDaForUsers(anonymized, auxiliary, users, state.candidates,
                              &state.rejected, scores, refined_config);
}

StatusOr<DeHealthResult> DeHealth::Run(const UdaGraph& anonymized,
                                       const UdaGraph& auxiliary) const {
  DeHealthResult result;

  // Phase 1a: structural similarity (Algorithm 1, lines 2-4). The
  // pipeline-level thread knob overrides the sub-config fields.
  SimilarityConfig sim_config = config_.similarity;
  sim_config.num_threads = config_.num_threads;
  const StructuralSimilarity similarity(anonymized, auxiliary, sim_config);
  result.similarity = similarity.ComputeMatrix();

  const DenseCandidateSource source(result.similarity);
  DEHEALTH_RETURN_IF_ERROR(
      RunPhases(*this, anonymized, auxiliary, source, result));
  return result;
}

StatusOr<DeHealthResult> DeHealth::RunWithSource(
    const UdaGraph& anonymized, const UdaGraph& auxiliary,
    const CandidateSource& scores) const {
  DeHealthResult result;
  DEHEALTH_RETURN_IF_ERROR(
      RunPhases(*this, anonymized, auxiliary, scores, result));
  return result;
}

StatusOr<RefinedDaResult> RunStylometryBaseline(
    const UdaGraph& anonymized, const UdaGraph& auxiliary,
    const std::vector<std::vector<double>>& similarity,
    const RefinedDaConfig& config) {
  // Every auxiliary user is a candidate for every anonymized user; the
  // training problem is therefore identical across anonymized users, so
  // one shared classifier replaces per-user retraining (a ~|V1|x speedup
  // with the same semantics).
  std::vector<int> all(static_cast<size_t>(auxiliary.num_users()));
  std::iota(all.begin(), all.end(), 0);
  const CandidateSets candidates(
      static_cast<size_t>(anonymized.num_users()), all);
  return RunRefinedDaShared(anonymized, auxiliary, candidates,
                            DenseCandidateSource(similarity), config);
}

}  // namespace dehealth
