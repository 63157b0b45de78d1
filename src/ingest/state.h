#ifndef DEHEALTH_INGEST_STATE_H_
#define DEHEALTH_INGEST_STATE_H_

#include <cstdint>

#include "common/status.h"
#include "core/uda_graph.h"
#include "datagen/corpus.h"
#include "ingest/segment.h"

namespace dehealth {
namespace ingest {

/// The accumulated auxiliary-side state a chain of delta segments grows:
/// the forum dataset (posts in ingestion order) plus its UDA graph, kept
/// bitwise-equal to BuildUdaGraph(dataset) after every Apply (see
/// ApplyPostsToUdaGraph). The fingerprint pinning segments to states is
/// FingerprintForIndex over the UDA graph — the same fingerprint DHIX
/// snapshots and the router's universe validation use, so "the segment
/// applies here" and "these backends serve the same universe" are one
/// notion.
class IngestState {
 public:
  /// Builds the state of a base forum (one full feature-extraction pass).
  /// This and every later Apply, Advance and rollback rebuild extract on
  /// `cpu_threads` CPU threads (0 = all hardware threads); the state is
  /// bitwise the same for every value.
  static IngestState FromDataset(ForumDataset dataset, int cpu_threads = 0);

  /// Applies one delta segment: validates the parent fingerprint against
  /// the current state (FailedPrecondition on mismatch — the segment was
  /// cut for a different state), folds the posts in incrementally, then
  /// validates the result fingerprint (InvalidArgument on mismatch — the
  /// segment lied about what it produces). Apply is transactional: on ANY
  /// failure the state is rolled back to its pre-apply value (a rejected
  /// segment never poisons the chain), verified by fingerprint. If that
  /// verification itself fails the state is marked poisoned (kInternal)
  /// and every later Apply/Advance refuses until it is rebuilt. Only the
  /// new posts' text is processed.
  Status Apply(const DeltaSegment& segment);

  /// Producer-side advance: folds posts in WITHOUT segment fingerprint
  /// checks (CutSegment stamps the fingerprints around this). Consumers
  /// applying untrusted segments must use Apply.
  Status Advance(const std::vector<Post>& new_posts, int num_users_after,
                 int num_threads_after);

  /// FingerprintForIndex of the current UDA graph.
  uint64_t fingerprint() const;

  /// True after a failed Apply whose rollback could not be verified: the
  /// state no longer matches any known fingerprint and must not be
  /// advanced, sealed, or served from. Rebuild via FromDataset.
  bool poisoned() const { return poisoned_; }

  const ForumDataset& dataset() const { return dataset_; }
  const UdaGraph& uda() const { return uda_; }
  uint64_t posts() const { return dataset_.posts.size(); }

 private:
  ForumDataset dataset_;
  UdaGraph uda_;
  int cpu_threads_ = 0;
  bool poisoned_ = false;
};

/// Cuts a delta segment that advances `state` by `new_posts`: stamps the
/// parent fingerprint from the pre-apply state, applies the posts (the
/// state IS advanced), and stamps the result fingerprint from the
/// post-apply state. `num_users_after`/`num_threads_after` of 0 mean
/// "grow to fit the new posts" (max id + 1, floored at the current
/// bounds). The shard identity is stamped verbatim ((0, 1) = universal).
StatusOr<DeltaSegment> CutSegment(IngestState* state,
                                  const std::vector<Post>& new_posts,
                                  int num_users_after = 0,
                                  int num_threads_after = 0,
                                  uint32_t shard_index = 0,
                                  uint32_t shard_count = 1);

}  // namespace ingest
}  // namespace dehealth

#endif  // DEHEALTH_INGEST_STATE_H_
