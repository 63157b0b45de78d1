#ifndef DEHEALTH_CORE_UDA_GRAPH_H_
#define DEHEALTH_CORE_UDA_GRAPH_H_

#include <utility>
#include <vector>

#include "common/status.h"
#include "datagen/corpus.h"
#include "graph/correlation_graph.h"
#include "stylo/feature_vector.h"

namespace dehealth {

/// A user's attribute set A(u) with its weights l_u(A_i): one (feature id,
/// number of the user's posts having that feature) pair per feature some
/// post has, ascending by id.
using AttributeCounts = std::vector<std::pair<int, int>>;

/// Counts the attributes of one user's `posts`: a feature is an attribute
/// when some post has it nonzero, weighted by how many posts do. The ids
/// must lie in the extractor's [0, kTotalFeatures). The counts are
/// integers, so they do not depend on the order of the posts.
AttributeCounts CountAttributes(const std::vector<SparseVector>& posts);

/// The paper's User-Data-Attribute graph G = (V, E, W, A, O, L): the user
/// correlation graph extended with per-user attribute sets derived from the
/// stylometric feature space. Per-post feature vectors are retained for the
/// refined-DA (classifier) phase.
struct UdaGraph {
  CorrelationGraph graph;
  /// attributes[u] is A(u) with its weights, CountAttributes(post_features[u]),
  /// stored once when the posts are folded in.
  std::vector<AttributeCounts> attributes;
  /// post_features[u] are the per-post stylometric vectors of user u, in
  /// post order; their count is u's number of posts.
  std::vector<std::vector<SparseVector>> post_features;

  int num_users() const { return graph.num_nodes(); }
};

/// Builds the UDA graph of a dataset: extracts Table-I features from every
/// post, aggregates per-user attributes, and constructs the co-thread
/// correlation graph. Cost: one extraction pass over all posts, spread over
/// `cpu_threads` CPU threads (0 = all hardware threads). The result is
/// bitwise the same for every thread count.
UdaGraph BuildUdaGraph(const ForumDataset& dataset, int cpu_threads = 0);

/// Streaming-ingest entry point: appends `new_posts` to `dataset` (growing
/// it to `num_users_after` users and `num_threads_after` discussion
/// threads), extracts features for the NEW posts only on `cpu_threads` CPU
/// threads (0 = all hardware threads), appends them to their users' post
/// lists in post order, recounts the attributes of the users that received
/// posts, and rebuilds the co-thread correlation graph from the
/// accumulated dataset. BuildUdaGraph runs the same extraction over all
/// posts.
///
/// Bitwise contract: after any sequence of Apply calls, `*uda` is
/// byte-for-byte equal to `BuildUdaGraph(*dataset)` — per-user post lists
/// are identical (the full dataset lists base posts before appended posts),
/// attribute counts are integers counted over those lists, and
/// BuildCorrelationGraph is insertion-order-independent by construction.
/// Only the feature-extraction cost of the new posts is paid. Fails if any
/// new post's ids fall outside the after-bounds or the bounds shrink.
Status ApplyPostsToUdaGraph(UdaGraph* uda, ForumDataset* dataset,
                            const std::vector<Post>& new_posts,
                            int num_users_after, int num_threads_after,
                            int cpu_threads = 0);

}  // namespace dehealth

#endif  // DEHEALTH_CORE_UDA_GRAPH_H_
