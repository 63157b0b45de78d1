#ifndef DEHEALTH_INDEX_INDEXED_SOURCE_H_
#define DEHEALTH_INDEX_INDEXED_SOURCE_H_

#include <vector>

#include "core/candidate_source.h"
#include "index/candidate_index.h"

namespace dehealth {

/// CandidateSource over one CandidateIndex: the whole auxiliary index
/// (--index), or one fleet backend's slice of it (--shard-count), which
/// answers with the slice's local ids. A row is one FeatureStore scan, and
/// Top-K ranks it with TopKForRow — the function the dense path uses — so
/// every answer is bitwise the dense answer (restricted to the slice) for
/// any thread count, and the dense matrix is never formed.
class IndexedCandidateSource final : public CandidateSource {
 public:
  /// Computes the anonymized-side query features once with the index's
  /// IDF table and landmark count — O(ħ·(V+E log V)). `num_threads` only
  /// affects that construction, never results.
  IndexedCandidateSource(const UdaGraph& anonymized, CandidateIndex index,
                         int num_threads = 0);

  int num_anonymized() const override;
  int num_auxiliary() const override;
  double Score(NodeId u, NodeId v) const override;
  const std::vector<double>& Row(NodeId u,
                                 std::vector<double>* scratch) const override;
  StatusOr<CandidateSets> TopK(int k, int num_threads) const override;
  StatusOr<CandidateSets> TopKForUsers(const std::vector<int>& users, int k,
                                       int num_threads) const override;

 private:
  CandidateIndex index_;
  std::vector<UserFeatures> queries_;
};

}  // namespace dehealth

#endif  // DEHEALTH_INDEX_INDEXED_SOURCE_H_
