#include "index/indexed_source.h"

#include <utility>

#include "obs/standard_metrics.h"

namespace dehealth {

IndexedCandidateSource::IndexedCandidateSource(const UdaGraph& anonymized,
                                               CandidateIndex index,
                                               int num_threads)
    : index_(std::move(index)),
      queries_(index_.ComputeQueryFeatures(anonymized, num_threads)) {}

int IndexedCandidateSource::num_anonymized() const {
  return static_cast<int>(queries_.size());
}

int IndexedCandidateSource::num_auxiliary() const {
  return index_.num_auxiliary();
}

double IndexedCandidateSource::Score(NodeId u, NodeId v) const {
  return index_.ExactScore(queries_[static_cast<size_t>(u)], v);
}

const std::vector<double>& IndexedCandidateSource::Row(
    NodeId u, std::vector<double>* scratch) const {
  scratch->resize(static_cast<size_t>(num_auxiliary()));
  index_.ExactRowTo(queries_[static_cast<size_t>(u)], scratch->data());
  return *scratch;
}

StatusOr<CandidateSets> IndexedCandidateSource::TopKForUsers(
    const std::vector<int>& users, int k, int num_threads,
    ScoreRange* range) const {
  StatusOr<CandidateSets> result =
      CandidateSource::TopKForUsers(users, k, num_threads, range);
  if (!result.ok()) return result;
  // Every Top-K row is one full scan: bound_pruned stays 0, and
  // dense_scans == topk_queries.
  const auto rows = static_cast<uint64_t>(users.size());
  obs::IndexMetrics& metrics = obs::GetIndexMetrics();
  metrics.topk_queries->Increment(rows);
  metrics.dense_scans->Increment(rows);
  metrics.exact_evals->Increment(rows *
                                 static_cast<uint64_t>(num_auxiliary()));
  return result;
}

}  // namespace dehealth
