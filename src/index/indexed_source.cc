#include "index/indexed_source.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "obs/standard_metrics.h"
#include "obs/trace.h"

namespace dehealth {

IndexedCandidateSource::IndexedCandidateSource(
    const UdaGraph& anonymized, std::vector<CandidateIndex> slices,
    int num_threads)
    : slices_(std::move(slices)) {
  assert(!slices_.empty() && "IndexedCandidateSource needs >= 1 slice");
  offsets_.push_back(0);
  for (const CandidateIndex& slice : slices_) {
    assert(slice.data().shard_begin - slices_.front().data().shard_begin ==
               static_cast<uint32_t>(offsets_.back()) &&
           "slices must be ordered and contiguous");
    offsets_.push_back(offsets_.back() + slice.num_auxiliary());
  }
  queries_ = slices_.front().ComputeQueryFeatures(anonymized, num_threads);
}

int IndexedCandidateSource::num_anonymized() const {
  return static_cast<int>(queries_.size());
}

int IndexedCandidateSource::num_auxiliary() const { return offsets_.back(); }

double IndexedCandidateSource::Score(NodeId u, NodeId v) const {
  // The slice owning v: the last one beginning at or before v (an empty
  // slice shares its begin with the next one, which wins).
  const auto s = static_cast<size_t>(
      std::upper_bound(offsets_.begin() + 1, offsets_.end() - 1, v) -
      (offsets_.begin() + 1));
  return slices_[s].ExactScore(queries_[static_cast<size_t>(u)],
                               v - offsets_[s]);
}

const std::vector<double>& IndexedCandidateSource::Row(
    NodeId u, std::vector<double>* scratch) const {
  scratch->resize(static_cast<size_t>(num_auxiliary()));
  for (size_t s = 0; s < slices_.size(); ++s)
    slices_[s].ExactRowTo(queries_[static_cast<size_t>(u)],
                          scratch->data() + offsets_[s]);
  return *scratch;
}

StatusOr<CandidateSets> IndexedCandidateSource::TopK(int k,
                                                     int num_threads) const {
  obs::Span span("index", "indexed_top_k");
  span.SetArg("rows", static_cast<int64_t>(queries_.size()));
  std::vector<int> users(queries_.size());
  std::iota(users.begin(), users.end(), 0);
  return TopKForUsers(users, k, num_threads);
}

StatusOr<CandidateSets> IndexedCandidateSource::TopKForUsers(
    const std::vector<int>& users, int k, int num_threads) const {
  StatusOr<CandidateSets> result =
      CandidateSource::TopKForUsers(users, k, num_threads);
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
