#ifndef DEHEALTH_INDEX_INDEXED_SOURCE_H_
#define DEHEALTH_INDEX_INDEXED_SOURCE_H_

#include <vector>

#include "core/candidate_source.h"
#include "index/candidate_index.h"

namespace dehealth {

/// CandidateSource over 1..N contiguous CandidateIndex slices of one
/// auxiliary universe: the whole index (--index), the N shards of an
/// in-process sharded run (--shards N), or one fleet backend's slice
/// (--shard-count). Auxiliary ids count from the first slice's begin, so a
/// lone fleet slice answers with local ids. A row is one FeatureStore scan
/// per slice, written into that slice's segment, and Top-K ranks the
/// assembled row with TopKForRow — the function the dense path uses — so
/// every answer is bitwise the dense answer for any slice layout and
/// thread count, and the dense matrix is never formed.
class IndexedCandidateSource final : public CandidateSource {
 public:
  /// `slices` must be non-empty, ordered, and contiguous: slice i + 1
  /// begins where slice i ends. All slices come from one build, so they
  /// share the GLOBAL idf table and landmark count; construction computes
  /// the anonymized-side query features once from slice 0 —
  /// O(ħ·(V+E log V)). `num_threads` only affects that construction,
  /// never results.
  IndexedCandidateSource(const UdaGraph& anonymized,
                         std::vector<CandidateIndex> slices,
                         int num_threads = 0);

  int num_anonymized() const override;
  int num_auxiliary() const override;
  double Score(NodeId u, NodeId v) const override;
  const std::vector<double>& Row(NodeId u,
                                 std::vector<double>* scratch) const override;
  StatusOr<CandidateSets> TopK(int k, int num_threads) const override;
  StatusOr<CandidateSets> TopKForUsers(const std::vector<int>& users, int k,
                                       int num_threads) const override;

  int num_slices() const { return static_cast<int>(slices_.size()); }

 private:
  std::vector<CandidateIndex> slices_;
  /// offsets_[i] is slice i's first auxiliary id; offsets_.back() is
  /// num_auxiliary().
  std::vector<int> offsets_;
  std::vector<IndexedUserFeatures> queries_;
};

}  // namespace dehealth

#endif  // DEHEALTH_INDEX_INDEXED_SOURCE_H_
