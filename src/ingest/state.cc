#include "ingest/state.h"

#include <algorithm>

#include "index/candidate_index.h"
#include "obs/standard_metrics.h"

namespace dehealth {
namespace ingest {

IngestState IngestState::FromDataset(ForumDataset dataset, int cpu_threads) {
  IngestState state;
  state.cpu_threads_ = cpu_threads;
  state.uda_ = BuildUdaGraph(dataset, cpu_threads);
  state.dataset_ = std::move(dataset);
  return state;
}

uint64_t IngestState::fingerprint() const {
  return FingerprintForIndex(uda_);
}

Status IngestState::Advance(const std::vector<Post>& new_posts,
                            int num_users_after, int num_threads_after) {
  if (poisoned_)
    return Status::FailedPrecondition(
        "IngestState::Advance: state is poisoned by an earlier failed "
        "apply whose rollback could not be verified; rebuild it");
  DEHEALTH_RETURN_IF_ERROR(ApplyPostsToUdaGraph(&uda_, &dataset_, new_posts,
                                                num_users_after,
                                                num_threads_after,
                                                cpu_threads_));
  obs::GetIngestMetrics().posts_applied->Increment(new_posts.size());
  return Status::OK();
}

Status IngestState::Apply(const DeltaSegment& segment) {
  if (poisoned_)
    return Status::FailedPrecondition(
        "IngestState::Apply: state is poisoned by an earlier failed "
        "apply whose rollback could not be verified; rebuild it");
  if (segment.base_posts != dataset_.posts.size())
    return Status::FailedPrecondition(
        "IngestState::Apply: segment expects a parent with " +
        std::to_string(segment.base_posts) + " posts, state has " +
        std::to_string(dataset_.posts.size()));
  const uint64_t current = fingerprint();
  if (segment.parent_fingerprint != current)
    return Status::FailedPrecondition(
        "IngestState::Apply: segment parent fingerprint " +
        std::to_string(segment.parent_fingerprint) +
        " does not match the current state (" + std::to_string(current) +
        ") — the segment was cut for a different logical forum or out of "
        "chain order");
  const size_t base_posts = dataset_.posts.size();
  const int base_users = dataset_.num_users;
  const int base_threads = dataset_.num_threads;
  Status failure = Advance(segment.posts, segment.num_users_after,
                           segment.num_threads_after);
  if (failure.ok()) {
    const uint64_t result = fingerprint();
    if (segment.result_fingerprint == result) return Status::OK();
    failure = Status::InvalidArgument(
        "IngestState::Apply: applied segment produced fingerprint " +
        std::to_string(result) + " but claims " +
        std::to_string(segment.result_fingerprint) +
        " — the segment content does not match its manifest; it was "
        "rolled back");
  }
  // Roll back: Advance only appends posts, grows the universe bounds, and
  // appends per-user features (the graph is rebuilt from the dataset), so
  // truncating the dataset and rebuilding restores the pre-apply state
  // bitwise — verified against the parent fingerprint we already matched.
  dataset_.posts.resize(base_posts);
  dataset_.num_users = base_users;
  dataset_.num_threads = base_threads;
  uda_ = BuildUdaGraph(dataset_, cpu_threads_);
  if (fingerprint() != current) {
    poisoned_ = true;
    return Status::Internal(
        "IngestState::Apply: rollback after a failed apply did not "
        "restore the parent state (" + std::string(failure.message()) +
        "); the state is poisoned and must be rebuilt");
  }
  return failure;
}

StatusOr<DeltaSegment> CutSegment(IngestState* state,
                                  const std::vector<Post>& new_posts,
                                  int num_users_after, int num_threads_after,
                                  uint32_t shard_index,
                                  uint32_t shard_count) {
  if (shard_count == 0 || shard_index >= shard_count)
    return Status::InvalidArgument(
        "CutSegment: shard identity (" + std::to_string(shard_index) +
        " of " + std::to_string(shard_count) + ") is invalid");
  DeltaSegment segment;
  segment.shard_index = shard_index;
  segment.shard_count = shard_count;
  segment.base_posts = state->posts();
  segment.parent_fingerprint = state->fingerprint();
  int users_after = std::max(num_users_after, state->dataset().num_users);
  int threads_after =
      std::max(num_threads_after, state->dataset().num_threads);
  for (const Post& post : new_posts) {
    users_after = std::max(users_after, post.user_id + 1);
    threads_after = std::max(threads_after, post.thread_id + 1);
  }
  segment.num_users_after = users_after;
  segment.num_threads_after = threads_after;
  segment.posts = new_posts;
  // Advance the producer's state through the same entry point the server
  // uses, so producer and consumer fingerprints cannot diverge.
  DEHEALTH_RETURN_IF_ERROR(
      state->Advance(new_posts, users_after, threads_after));
  segment.result_fingerprint = state->fingerprint();
  return segment;
}

}  // namespace ingest
}  // namespace dehealth
