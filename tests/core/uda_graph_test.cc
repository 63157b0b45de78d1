#include "core/uda_graph.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "io/byte_codec.h"
#include "stylo/feature_layout.h"

namespace dehealth {
namespace {

ForumDataset TinyDataset() {
  ForumDataset d;
  d.num_users = 3;
  d.num_threads = 2;
  d.posts = {
      {0, 0, "I have a headache and it hurts."},
      {1, 0, "Try drinking more water!"},
      {0, 1, "Still hurts today."},
      {2, 1, "See a doctor please."},
  };
  return d;
}

TEST(BuildUdaGraphTest, GraphStructureMatchesThreads) {
  UdaGraph uda = BuildUdaGraph(TinyDataset());
  EXPECT_EQ(uda.num_users(), 3);
  EXPECT_EQ(uda.graph.EdgeWeight(0, 1), 1.0);
  EXPECT_EQ(uda.graph.EdgeWeight(0, 2), 1.0);
  EXPECT_EQ(uda.graph.EdgeWeight(1, 2), 0.0);
}

TEST(BuildUdaGraphTest, ProfilesCountPosts) {
  UdaGraph uda = BuildUdaGraph(TinyDataset());
  ASSERT_EQ(uda.attributes.size(), 3u);
  ASSERT_EQ(uda.post_features.size(), 3u);
  EXPECT_EQ(uda.post_features[0].size(), 2u);
  EXPECT_EQ(uda.post_features[1].size(), 1u);
  EXPECT_EQ(uda.post_features[2].size(), 1u);
}

/// The weight of attribute `id` in `attributes`, 0 when absent.
int WeightOf(const AttributeCounts& attributes, int id) {
  for (const auto& [attribute, weight] : attributes)
    if (attribute == id) return weight;
  return 0;
}

TEST(BuildUdaGraphTest, AttributesDerivedFromFeatures) {
  UdaGraph uda = BuildUdaGraph(TinyDataset());
  // Every user writes characters, so everyone has the num_chars attribute.
  for (int u = 0; u < 3; ++u)
    EXPECT_GT(WeightOf(uda.attributes[static_cast<size_t>(u)],
                       feature_layout::kNumChars),
              0);
  // User 0 wrote two posts -> weight 2 on universally-present attributes.
  EXPECT_EQ(WeightOf(uda.attributes[0], feature_layout::kNumChars), 2);
  for (size_t u = 0; u < 3; ++u)
    EXPECT_EQ(uda.attributes[u], CountAttributes(uda.post_features[u]));
}

TEST(BuildUdaGraphTest, PostFeaturesNonEmpty) {
  UdaGraph uda = BuildUdaGraph(TinyDataset());
  for (const auto& user_posts : uda.post_features)
    for (const auto& f : user_posts) EXPECT_FALSE(f.empty());
}

// FNV-1a over a sparse vector's (id, value bits) entries.
uint64_t HashEntries(uint64_t h, const SparseVector& v) {
  h = Fnv1aValue(h, static_cast<uint64_t>(v.NumNonZero()));
  for (const auto& [id, value] : v.entries()) {
    h = Fnv1aValue(h, id);
    h = Fnv1aValue(h, std::bit_cast<uint64_t>(value));
  }
  return h;
}

// Every post vector, then every user's post count, (id, weight) attributes
// and the bits of the sum of its posts added in post order, in user order.
uint64_t UdaFeatureHash(const UdaGraph& uda) {
  uint64_t h = kFnv1aBasis;
  h = Fnv1aValue(h, static_cast<uint64_t>(uda.attributes.size()));
  for (size_t u = 0; u < uda.attributes.size(); ++u) {
    const std::vector<SparseVector>& posts = uda.post_features[u];
    h = Fnv1aValue(h, static_cast<uint64_t>(posts.size()));
    for (const SparseVector& post : posts) h = HashEntries(h, post);
    h = Fnv1aValue(h, static_cast<int>(posts.size()));
    h = Fnv1aValue(h, static_cast<uint64_t>(uda.attributes[u].size()));
    for (const auto& [id, weight] : uda.attributes[u]) {
      h = Fnv1aValue(h, id);
      h = Fnv1aValue(h, weight);
    }
    SparseVector sum;
    for (const SparseVector& post : posts) sum.AddVector(post);
    h = HashEntries(h, sum);
  }
  return h;
}

// Grows a graph from a prefix of `dataset` through three uneven
// ApplyPostsToUdaGraph batches (1 post, about half, the rest), growing the
// universe as the posts need it.
UdaGraph GrowInBatches(const ForumDataset& dataset, int cpu_threads) {
  const size_t n = dataset.posts.size();
  const size_t cuts[] = {n / 5, n / 5 + 1, n * 2 / 3, n};
  ForumDataset grown;
  grown.posts.assign(dataset.posts.begin(), dataset.posts.begin() + cuts[0]);
  for (const Post& p : grown.posts) {
    grown.num_users = std::max(grown.num_users, p.user_id + 1);
    grown.num_threads = std::max(grown.num_threads, p.thread_id + 1);
  }
  UdaGraph uda = BuildUdaGraph(grown, cpu_threads);
  for (size_t b = 1; b < 4; ++b) {
    const std::vector<Post> batch(dataset.posts.begin() + cuts[b - 1],
                                  dataset.posts.begin() + cuts[b]);
    int users = grown.num_users, threads = grown.num_threads;
    for (const Post& p : batch) {
      users = std::max(users, p.user_id + 1);
      threads = std::max(threads, p.thread_id + 1);
    }
    if (b == 3) {
      users = dataset.num_users;
      threads = dataset.num_threads;
    }
    EXPECT_TRUE(ApplyPostsToUdaGraph(&uda, &grown, batch, users, threads,
                                     cpu_threads)
                    .ok());
  }
  return uda;
}

TEST(BuildUdaGraphTest, FeaturesMatchPinnedValues) {
  // Literals taken before extraction went parallel and allocation-lean:
  // every per-post vector and every profile must stay bitwise what the
  // serial extractor produced, at any thread count and through ingest.
  struct Pinned {
    const char* name;
    ForumConfig config;
    uint64_t anonymized;
    uint64_t auxiliary;
  };
  for (const Pinned& pinned :
       {Pinned{"webmd", WebMdLikeConfig(60, 5), 0xc708d0e87d85b2b9ULL,
               0xed86f152b95e1a7bULL},
        Pinned{"healthboards", HealthBoardsLikeConfig(40, 6),
               0x0ac73e17a28ed92eULL, 0x4d282864fe636c52ULL}}) {
    SCOPED_TRACE(pinned.name);
    auto forum = GenerateForum(pinned.config);
    ASSERT_TRUE(forum.ok());
    auto split = MakeClosedWorldScenario(forum->dataset, 0.5, 3);
    ASSERT_TRUE(split.ok());
    for (const int cpu_threads : {1, 4, 8}) {
      SCOPED_TRACE("cpu_threads=" + std::to_string(cpu_threads));
      const uint64_t anon =
          UdaFeatureHash(BuildUdaGraph(split->anonymized, cpu_threads));
      const uint64_t aux =
          UdaFeatureHash(BuildUdaGraph(split->auxiliary, cpu_threads));
      EXPECT_EQ(anon, pinned.anonymized) << std::hex << "0x" << anon;
      EXPECT_EQ(aux, pinned.auxiliary) << std::hex << "0x" << aux;
      EXPECT_EQ(UdaFeatureHash(GrowInBatches(split->auxiliary, cpu_threads)),
                pinned.auxiliary);
    }
  }
}

TEST(BuildUdaGraphTest, EmptyDataset) {
  ForumDataset d;
  d.num_users = 2;
  UdaGraph uda = BuildUdaGraph(d);
  EXPECT_EQ(uda.num_users(), 2);
  ASSERT_EQ(uda.post_features.size(), 2u);
  ASSERT_EQ(uda.attributes.size(), 2u);
  EXPECT_TRUE(uda.post_features[0].empty());
  EXPECT_TRUE(uda.attributes[0].empty());
}

SparseVector Vec(std::initializer_list<std::pair<int, double>> init) {
  SparseVector v;
  for (const auto& [id, value] : init) v.Set(id, value);
  return v;
}

TEST(CountAttributesTest, NoPosts) {
  EXPECT_TRUE(CountAttributes({}).empty());
}

TEST(CountAttributesTest, PostsSharingIdsCountPosts) {
  // Id 1 is in both posts, whatever its values; id 2 in one.
  EXPECT_EQ(CountAttributes({Vec({{1, 0.5}, {2, 1.0}}), Vec({{1, 0.3}})}),
            (AttributeCounts{{1, 2}, {2, 1}}));
}

TEST(CountAttributesTest, PostsWithDisjointIdsEachCountOnce) {
  // Emitted by id, not in the order the posts list them; the repeated call
  // shows the per-thread counts start from zero again.
  const std::vector<SparseVector> posts = {
      Vec({{1757, 2.0}}), Vec({{3, 1.0}, {40, 4.0}}), Vec({{0, 1.0}})};
  const AttributeCounts expected = {{0, 1}, {3, 1}, {40, 1}, {1757, 1}};
  EXPECT_EQ(CountAttributes(posts), expected);
  EXPECT_EQ(CountAttributes(posts), expected);
}

}  // namespace
}  // namespace dehealth
