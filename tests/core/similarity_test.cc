#include "core/similarity.h"

#include <gtest/gtest.h>

namespace dehealth {
namespace {

SparseVector Vec(std::initializer_list<std::pair<int, double>> init) {
  SparseVector v;
  for (const auto& [id, value] : init) v.Set(id, value);
  return v;
}

/// Builds a small UDA graph by hand: `edges` on `n` users, plus per-user
/// post feature vectors.
UdaGraph MakeUda(int n,
                 std::vector<std::tuple<int, int, double>> edges,
                 std::vector<std::vector<SparseVector>> posts) {
  UdaGraph uda;
  uda.graph = CorrelationGraph(n);
  for (const auto& [u, v, w] : edges) uda.graph.AddInteraction(u, v, w);
  posts.resize(static_cast<size_t>(n));
  uda.post_features = std::move(posts);
  for (const std::vector<SparseVector>& user_posts : uda.post_features)
    uda.attributes.push_back(CountAttributes(user_posts));
  return uda;
}

using AttributeList = std::vector<std::pair<int, double>>;

TEST(FlattenedAttributeSimilarityTest, MatchesUserProfileVersion) {
  const AttributeList empty;
  EXPECT_EQ(FlattenedAttributeSimilarity(empty, empty), 0.0);
  // Identical: 1 + 1.
  const AttributeList a = {{1, 2}, {3, 1}};
  EXPECT_NEAR(FlattenedAttributeSimilarity(a, a), 2.0, 1e-12);
  // Disjoint: 0.
  const AttributeList b = {{5, 1}};
  EXPECT_EQ(FlattenedAttributeSimilarity(a, b), 0.0);
  // a={1:2, 3:1}, c={1:1, 7:1}: set 1/3; weighted min 1 over max 2+1+1.
  const AttributeList c = {{1, 1}, {7, 1}};
  EXPECT_NEAR(FlattenedAttributeSimilarity(a, c), 1.0 / 3.0 + 0.25, 1e-12);
}

using Posts = std::vector<SparseVector>;

/// The attribute list ComputeUserFeatures builds without IDF from a user's
/// posts: (id, number of the posts having the feature), by id.
AttributeList Attributes(const Posts& posts) {
  const AttributeCounts counts = CountAttributes(posts);
  return AttributeList(counts.begin(), counts.end());
}

double ProfileSimilarity(const Posts& a, const Posts& b) {
  return FlattenedAttributeSimilarity(Attributes(a), Attributes(b));
}

TEST(AttributeSimilarityTest, EmptyProfilesScoreZero) {
  EXPECT_EQ(ProfileSimilarity({}, {}), 0.0);
}

TEST(AttributeSimilarityTest, IdenticalProfilesScoreTwo) {
  const Posts a = {Vec({{1, 1.0}, {2, 1.0}})};
  const Posts b = {Vec({{1, 1.0}, {2, 1.0}})};
  // Jaccard 1 + weighted Jaccard 1.
  EXPECT_NEAR(ProfileSimilarity(a, b), 2.0, 1e-12);
}

TEST(AttributeSimilarityTest, DisjointProfilesScoreZero) {
  EXPECT_EQ(ProfileSimilarity({Vec({{1, 1.0}})}, {Vec({{2, 1.0}})}), 0.0);
}

TEST(AttributeSimilarityTest, WeightedComponentUsesMinMax) {
  // a has attribute 1 in 3 posts; b in 1 post.
  const Posts a = {Vec({{1, 1.0}}), Vec({{1, 1.0}}), Vec({{1, 1.0}})};
  const Posts b = {Vec({{1, 1.0}})};
  // set Jaccard = 1; weighted = min(3,1)/max(3,1) = 1/3.
  EXPECT_NEAR(ProfileSimilarity(a, b), 1.0 + 1.0 / 3.0, 1e-12);
}

TEST(AttributeSimilarityTest, Symmetric) {
  const Posts a = {Vec({{1, 1.0}, {3, 1.0}})};
  const Posts b = {Vec({{1, 1.0}, {2, 1.0}}), Vec({{2, 1.0}})};
  EXPECT_EQ(ProfileSimilarity(a, b), ProfileSimilarity(b, a));
}

TEST(AttributeSimilarityTest, PartialOverlap) {
  const Posts a = {Vec({{1, 1.0}, {2, 1.0}})};
  const Posts b = {Vec({{2, 1.0}, {3, 1.0}})};
  // set: |{2}| / |{1,2,3}| = 1/3; weights: min 1 / (1+1+1) = 1/3.
  EXPECT_NEAR(ProfileSimilarity(a, b), 2.0 / 3.0, 1e-12);
}

/// Component weights (c1, c2, c3). With two of them 0, Combined() is
/// bitwise the third component: for finite x >= 0, 0·x is +0.
SimilarityConfig Weights(double c1, double c2, double c3) {
  SimilarityConfig config;
  config.c1 = c1;
  config.c2 = c2;
  config.c3 = c3;
  return config;
}

class StructuralSimilarityTest : public ::testing::Test {
 protected:
  StructuralSimilarityTest()
      : anon_(MakeUda(
            2, {{0, 1, 2.0}},
            {{Vec({{1, 0.5}, {2, 0.5}})}, {Vec({{3, 0.7}})}})),
        aux_(MakeUda(
            3, {{0, 1, 2.0}, {1, 2, 1.0}},
            {{Vec({{1, 0.4}, {2, 0.6}})},
             {Vec({{3, 0.9}})},
             {Vec({{9, 1.0}})}})) {}

  UdaGraph anon_;
  UdaGraph aux_;
};

TEST_F(StructuralSimilarityTest, DegreeSimilarityRange) {
  StructuralSimilarity sim(anon_, aux_, Weights(1.0, 0.0, 0.0));
  for (int u = 0; u < 2; ++u)
    for (int v = 0; v < 3; ++v) {
      const double s = sim.Combined(u, v);
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 3.0);
    }
}

TEST_F(StructuralSimilarityTest, IdenticalDegreeProfilesScoreHigh) {
  // anon user 0 (degree 1, weight 2) vs aux user 0 (degree 1, weight 2 on
  // edge to 1): ratios 1, 1, cosine 1 => 3.
  StructuralSimilarity sim(anon_, aux_, Weights(1.0, 0.0, 0.0));
  EXPECT_NEAR(sim.Combined(0, 0), 3.0, 1e-9);
}

TEST_F(StructuralSimilarityTest, AttributeSimilarityMatchesOverlap) {
  StructuralSimilarity sim(anon_, aux_, Weights(0.0, 0.0, 1.0));
  // anon 0 has attributes {1,2}; aux 0 has {1,2} -> 2.0; aux 2 has {9} -> 0.
  EXPECT_NEAR(sim.Combined(0, 0), 2.0, 1e-12);
  EXPECT_EQ(sim.Combined(0, 2), 0.0);
}

TEST_F(StructuralSimilarityTest, CombinedUsesWeights) {
  const SimilarityConfig config;  // paper weights
  StructuralSimilarity sim(anon_, aux_, config);
  StructuralSimilarity degree(anon_, aux_, Weights(1.0, 0.0, 0.0));
  StructuralSimilarity distance(anon_, aux_, Weights(0.0, 1.0, 0.0));
  StructuralSimilarity attr(anon_, aux_, Weights(0.0, 0.0, 1.0));
  for (int u = 0; u < 2; ++u)
    for (int v = 0; v < 3; ++v)
      EXPECT_NEAR(sim.Combined(u, v),
                  config.c1 * degree.Combined(u, v) +
                      config.c2 * distance.Combined(u, v) +
                      config.c3 * attr.Combined(u, v),
                  1e-12);
}

TEST_F(StructuralSimilarityTest, MatrixShapeAndConsistency) {
  StructuralSimilarity sim(anon_, aux_, {});
  auto matrix = sim.ComputeMatrix();
  ASSERT_EQ(matrix.size(), 2u);
  ASSERT_EQ(matrix[0].size(), 3u);
  for (int u = 0; u < 2; ++u)
    for (int v = 0; v < 3; ++v)
      EXPECT_NEAR(matrix[static_cast<size_t>(u)][static_cast<size_t>(v)],
                  sim.Combined(u, v), 1e-12);
}

TEST_F(StructuralSimilarityTest, TrueMappingRanksFirst) {
  // With attribute-dominated weights (paper default), anon 0's most
  // similar auxiliary user should be aux 0 (same attributes), and anon 1's
  // should be aux 1.
  StructuralSimilarity sim(anon_, aux_, {});
  auto matrix = sim.ComputeMatrix();
  EXPECT_GT(matrix[0][0], matrix[0][1]);
  EXPECT_GT(matrix[0][0], matrix[0][2]);
  EXPECT_GT(matrix[1][1], matrix[1][0]);
  EXPECT_GT(matrix[1][1], matrix[1][2]);
}

TEST_F(StructuralSimilarityTest, DistanceSimilarityBounded) {
  SimilarityConfig config = Weights(0.0, 1.0, 0.0);
  config.num_landmarks = 2;
  StructuralSimilarity sim(anon_, aux_, config);
  for (int u = 0; u < 2; ++u)
    for (int v = 0; v < 3; ++v) {
      const double s = sim.Combined(u, v);
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 2.0);
    }
}

}  // namespace
}  // namespace dehealth
