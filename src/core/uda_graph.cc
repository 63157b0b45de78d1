#include "core/uda_graph.h"

#include <array>
#include <cassert>

#include "common/parallel.h"
#include "obs/standard_metrics.h"
#include "obs/trace.h"
#include "stylo/extractor.h"
#include "stylo/feature_layout.h"

namespace dehealth {

AttributeCounts CountAttributes(const std::vector<SparseVector>& posts) {
  // One dense count per worker thread, all zero between calls: the walk
  // that emits the counts clears every slot it emits.
  thread_local std::array<int, feature_layout::kTotalFeatures> counts{};
  size_t distinct = 0;
  for (const SparseVector& post : posts)
    for (const auto& [id, value] : post.entries()) {
      assert(id >= 0 && id < feature_layout::kTotalFeatures);
      if (value != 0.0 && counts[static_cast<size_t>(id)]++ == 0) ++distinct;
    }
  AttributeCounts attributes;
  attributes.reserve(distinct);
  for (size_t id = 0; id < counts.size() && attributes.size() < distinct; ++id)
    if (int& count = counts[id]; count > 0) {
      attributes.emplace_back(static_cast<int>(id), count);
      count = 0;
    }
  return attributes;
}

namespace {

/// Extracts dataset.posts[first, end) and folds them into `uda`, whose
/// attributes and post_features are already sized to dataset.num_users.
///
/// Two passes, both bitwise-independent of `cpu_threads`: every post is
/// extracted into its own slot (ExtractPost is a pure function of the
/// text), then every user that received posts appends its slots in
/// ascending post order after the posts it already holds — the list a
/// serial loop over the posts makes — and recounts its attributes.
void ExtractAndFold(const ForumDataset& dataset, size_t first, UdaGraph* uda,
                    int cpu_threads) {
  const size_t num_posts = dataset.posts.size() - first;
  std::vector<SparseVector> slots(num_posts);
  {
    obs::Span span("core", "extract_posts");
    span.SetArg("posts", static_cast<int64_t>(num_posts));
    const FeatureExtractor extractor;
    ParallelFor(
        0, static_cast<int64_t>(num_posts),
        [&](int64_t i) {
          slots[static_cast<size_t>(i)] = extractor.ExtractPost(
              dataset.posts[first + static_cast<size_t>(i)].text);
        },
        cpu_threads);
  }

  // Bucket the slots by user, keeping post order within each user.
  const auto num_users = static_cast<size_t>(dataset.num_users);
  std::vector<size_t> begin(num_users + 1, 0);
  for (size_t i = 0; i < num_posts; ++i)
    ++begin[static_cast<size_t>(dataset.posts[first + i].user_id) + 1];
  for (size_t u = 0; u < num_users; ++u) begin[u + 1] += begin[u];
  std::vector<size_t> order(num_posts);
  std::vector<size_t> cursor(begin.begin(), begin.end() - 1);
  for (size_t i = 0; i < num_posts; ++i)
    order[cursor[static_cast<size_t>(dataset.posts[first + i].user_id)]++] = i;

  obs::Span span("core", "fold_profiles");
  span.SetArg("users", static_cast<int64_t>(num_users));
  ParallelFor(
      0, static_cast<int64_t>(num_users),
      [&](int64_t user) {
        const auto u = static_cast<size_t>(user);
        if (begin[u] == begin[u + 1]) return;
        std::vector<SparseVector>& posts = uda->post_features[u];
        posts.reserve(posts.size() + (begin[u + 1] - begin[u]));
        for (size_t k = begin[u]; k < begin[u + 1]; ++k)
          posts.push_back(std::move(slots[order[k]]));
        uda->attributes[u] = CountAttributes(posts);
      },
      cpu_threads);
}

}  // namespace

UdaGraph BuildUdaGraph(const ForumDataset& dataset, int cpu_threads) {
  obs::Span span("core", "build_uda_graph");
  span.SetArg("posts", static_cast<int64_t>(dataset.posts.size()));
  obs::CoreMetrics& metrics = obs::GetCoreMetrics();
  metrics.uda_builds->Increment();
  metrics.uda_posts->Increment(dataset.posts.size());
  UdaGraph uda;
  uda.attributes.resize(static_cast<size_t>(dataset.num_users));
  uda.post_features.resize(static_cast<size_t>(dataset.num_users));
  ExtractAndFold(dataset, 0, &uda, cpu_threads);
  obs::Span graph_span("core", "correlation_graph");
  uda.graph = BuildCorrelationGraph(dataset);
  return uda;
}

Status ApplyPostsToUdaGraph(UdaGraph* uda, ForumDataset* dataset,
                            const std::vector<Post>& new_posts,
                            int num_users_after, int num_threads_after,
                            int cpu_threads) {
  obs::Span span("core", "apply_posts_to_uda_graph");
  span.SetArg("posts", static_cast<int64_t>(new_posts.size()));
  if (num_users_after < dataset->num_users ||
      num_threads_after < dataset->num_threads)
    return Status::InvalidArgument(
        "ApplyPostsToUdaGraph: universe must not shrink (" +
        std::to_string(num_users_after) + " users after vs " +
        std::to_string(dataset->num_users) + " before)");
  for (const Post& post : new_posts) {
    if (post.user_id < 0 || post.user_id >= num_users_after)
      return Status::OutOfRange(
          "ApplyPostsToUdaGraph: user_id " + std::to_string(post.user_id) +
          " outside [0, " + std::to_string(num_users_after) + ")");
    if (post.thread_id < 0 || post.thread_id >= num_threads_after)
      return Status::OutOfRange(
          "ApplyPostsToUdaGraph: thread_id " +
          std::to_string(post.thread_id) + " outside [0, " +
          std::to_string(num_threads_after) + ")");
  }
  obs::CoreMetrics& metrics = obs::GetCoreMetrics();
  metrics.uda_posts->Increment(new_posts.size());
  dataset->num_users = num_users_after;
  dataset->num_threads = num_threads_after;
  uda->attributes.resize(static_cast<size_t>(num_users_after));
  uda->post_features.resize(static_cast<size_t>(num_users_after));
  const size_t first = dataset->posts.size();
  dataset->posts.insert(dataset->posts.end(), new_posts.begin(),
                        new_posts.end());
  ExtractAndFold(*dataset, first, uda, cpu_threads);
  // The graph is rebuilt from the accumulated dataset rather than patched:
  // BuildCorrelationGraph keys on thread->participant sets (order-free), so
  // the rebuild is bitwise what a from-scratch build would produce, and it
  // costs no text processing — the expensive part above touched only the
  // new posts.
  obs::Span graph_span("core", "correlation_graph");
  uda->graph = BuildCorrelationGraph(*dataset);
  return Status::OK();
}

}  // namespace dehealth
