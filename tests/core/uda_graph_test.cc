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
  EXPECT_EQ(uda.profiles[0].num_posts(), 2);
  EXPECT_EQ(uda.profiles[1].num_posts(), 1);
  EXPECT_EQ(uda.post_features[0].size(), 2u);
  EXPECT_EQ(uda.post_features[2].size(), 1u);
}

TEST(BuildUdaGraphTest, AttributesDerivedFromFeatures) {
  UdaGraph uda = BuildUdaGraph(TinyDataset());
  // Every user writes characters, so everyone has the num_chars attribute.
  for (int u = 0; u < 3; ++u)
    EXPECT_TRUE(uda.profiles[static_cast<size_t>(u)].HasAttribute(
        feature_layout::kNumChars));
  // User 0 wrote two posts -> weight 2 on universally-present attributes.
  EXPECT_EQ(uda.profiles[0].AttributeWeight(feature_layout::kNumChars), 2);
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
// and SumFeatures bits, in user order.
uint64_t UdaFeatureHash(const UdaGraph& uda) {
  uint64_t h = kFnv1aBasis;
  h = Fnv1aValue(h, static_cast<uint64_t>(uda.profiles.size()));
  for (size_t u = 0; u < uda.profiles.size(); ++u) {
    h = Fnv1aValue(h, static_cast<uint64_t>(uda.post_features[u].size()));
    for (const SparseVector& post : uda.post_features[u])
      h = HashEntries(h, post);
    const UserProfile& profile = uda.profiles[u];
    h = Fnv1aValue(h, profile.num_posts());
    h = Fnv1aValue(h, static_cast<uint64_t>(profile.attributes().size()));
    for (const auto& [id, weight] : profile.attributes()) {
      h = Fnv1aValue(h, id);
      h = Fnv1aValue(h, weight);
    }
    h = HashEntries(h, profile.SumFeatures());
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
  EXPECT_EQ(uda.profiles[0].num_posts(), 0);
}

}  // namespace
}  // namespace dehealth
