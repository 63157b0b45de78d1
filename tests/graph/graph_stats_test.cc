#include "graph/graph_stats.h"

#include <gtest/gtest.h>

namespace dehealth {
namespace {

TEST(GraphStatsTest, EmptyGraph) {
  CorrelationGraph g(0);
  auto s = SummarizeGraph(g);
  EXPECT_EQ(s.num_nodes, 0);
  EXPECT_EQ(s.num_components, 0);
}

TEST(GraphStatsTest, TriangleIsFullyClustered) {
  CorrelationGraph g(3);
  g.AddInteraction(0, 1);
  g.AddInteraction(1, 2);
  g.AddInteraction(0, 2);
  for (int u = 0; u < 3; ++u)
    EXPECT_NEAR(LocalClusteringCoefficient(g, u), 1.0, 1e-12);
  auto s = SummarizeGraph(g);
  EXPECT_NEAR(s.mean_clustering, 1.0, 1e-12);
  EXPECT_EQ(s.num_components, 1);
  EXPECT_EQ(s.largest_component, 3);
  EXPECT_NEAR(s.mean_degree, 2.0, 1e-12);
}

TEST(GraphStatsTest, StarHasZeroClustering) {
  CorrelationGraph g(5);
  for (int i = 1; i < 5; ++i) g.AddInteraction(0, i);
  EXPECT_EQ(LocalClusteringCoefficient(g, 0), 0.0);
  EXPECT_EQ(LocalClusteringCoefficient(g, 1), 0.0);  // degree 1
  auto s = SummarizeGraph(g);
  EXPECT_EQ(s.mean_clustering, 0.0);
  EXPECT_EQ(s.max_degree, 4);
}

TEST(GraphStatsTest, IsolatedFraction) {
  CorrelationGraph g(4);
  g.AddInteraction(0, 1);
  auto s = SummarizeGraph(g);
  EXPECT_NEAR(s.isolated_fraction, 0.5, 1e-12);
  EXPECT_EQ(s.num_components, 3);  // {0,1}, {2}, {3}
  EXPECT_EQ(s.largest_component, 2);
}

TEST(GraphStatsTest, WeightedDegreeMean) {
  CorrelationGraph g(2);
  g.AddInteraction(0, 1, 3.0);
  auto s = SummarizeGraph(g);
  EXPECT_NEAR(s.mean_weighted_degree, 3.0, 1e-12);  // each side sees 3
}

TEST(GraphStatsTest, PartialClusteringValue) {
  // Square with one diagonal: node 0 neighbors {1, 3, 2}; edges among them:
  // (1,2) and (2,3) exist, (1,3) does not.
  CorrelationGraph g(4);
  g.AddInteraction(0, 1);
  g.AddInteraction(1, 2);
  g.AddInteraction(2, 3);
  g.AddInteraction(3, 0);
  g.AddInteraction(0, 2);
  // 0's neighbors {1,3,2}: pairs (1,3) no, (1,2) yes, (3,2) yes -> 2/3.
  EXPECT_NEAR(LocalClusteringCoefficient(g, 0), 2.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace dehealth
