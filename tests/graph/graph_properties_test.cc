// Parameterized property tests over random graphs: invariants of the
// graph substrate that the similarity machinery relies on.

#include <cmath>
#include <cstdlib>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/community.h"
#include "graph/correlation_graph.h"
#include "graph/landmarks.h"
#include "graph/shortest_path.h"

namespace dehealth {
namespace {

CorrelationGraph RandomGraph(int n, double edge_prob, uint64_t seed) {
  Rng rng(seed);
  CorrelationGraph g(n);
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (rng.NextBool(edge_prob))
        g.AddInteraction(i, j, rng.NextDouble(0.5, 4.0));
  return g;
}

class GraphPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GraphPropertyTest, HandshakeLemma) {
  const auto g = RandomGraph(30, 0.15,
                             static_cast<uint64_t>(GetParam()) + 10);
  long long degree_sum = 0;
  for (int u = 0; u < g.num_nodes(); ++u) degree_sum += g.Degree(u);
  EXPECT_EQ(degree_sum, 2LL * g.num_edges());
}

TEST_P(GraphPropertyTest, EdgeWeightSymmetry) {
  const auto g = RandomGraph(20, 0.2,
                             static_cast<uint64_t>(GetParam()) + 20);
  for (int u = 0; u < g.num_nodes(); ++u)
    for (const auto& nb : g.Neighbors(u))
      EXPECT_EQ(g.EdgeWeight(u, nb.id), g.EdgeWeight(nb.id, u));
}

TEST_P(GraphPropertyTest, BfsTriangleInequality) {
  const auto g = RandomGraph(25, 0.15,
                             static_cast<uint64_t>(GetParam()) + 30);
  const auto d0 = BfsDistances(g, 0);
  // Any edge (u, v) implies |d(u) - d(v)| <= 1 for reachable nodes.
  for (int u = 0; u < g.num_nodes(); ++u) {
    if (d0[static_cast<size_t>(u)] == kUnreachable) continue;
    for (const auto& nb : g.Neighbors(u)) {
      ASSERT_NE(d0[static_cast<size_t>(nb.id)], kUnreachable);
      EXPECT_LE(std::abs(d0[static_cast<size_t>(u)] -
                         d0[static_cast<size_t>(nb.id)]),
                1);
    }
  }
}

TEST_P(GraphPropertyTest, WeightedDistanceUpperBoundsViaEdges) {
  const auto g = RandomGraph(25, 0.15,
                             static_cast<uint64_t>(GetParam()) + 40);
  const auto d = WeightedDistances(g, 0);
  // Relaxation optimality: d(v) <= d(u) + 1/w(u,v) for every edge.
  for (int u = 0; u < g.num_nodes(); ++u) {
    if (std::isinf(d[static_cast<size_t>(u)])) continue;
    for (const auto& nb : g.Neighbors(u))
      EXPECT_LE(d[static_cast<size_t>(nb.id)],
                d[static_cast<size_t>(u)] + 1.0 / nb.weight + 1e-9);
  }
}

TEST_P(GraphPropertyTest, ComponentsPartitionNodes) {
  const auto g = RandomGraph(40, 0.05,
                             static_cast<uint64_t>(GetParam()) + 50);
  const auto comps = ConnectedComponents(g);
  const auto sizes = ComponentSizes(comps);
  int total = 0;
  for (int s : sizes) total += s;
  EXPECT_EQ(total, g.num_nodes());
  // Neighbors share a component.
  for (int u = 0; u < g.num_nodes(); ++u)
    for (const auto& nb : g.Neighbors(u))
      EXPECT_EQ(comps.label[static_cast<size_t>(u)],
                comps.label[static_cast<size_t>(nb.id)]);
}

TEST_P(GraphPropertyTest, LandmarkVectorsHaveLandmarkSize) {
  const auto g = RandomGraph(30, 0.1,
                             static_cast<uint64_t>(GetParam()) + 60);
  const LandmarkIndex index(g, 7);
  for (int u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(index.HopVector(u).size(), index.landmarks().size());
    EXPECT_EQ(index.WeightedVector(u).size(), index.landmarks().size());
    for (double p : index.HopVector(u)) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

TEST_P(GraphPropertyTest, FilterByDegreeMonotone) {
  const auto g = RandomGraph(30, 0.2,
                             static_cast<uint64_t>(GetParam()) + 70);
  int prev_edges = g.num_edges() + 1;
  for (int cutoff : {0, 2, 4, 8}) {
    const auto filtered = g.FilterByDegree(cutoff);
    EXPECT_LE(filtered.num_edges(), prev_edges);
    prev_edges = filtered.num_edges();
    // Surviving edges never touch a low-degree endpoint.
    for (int u = 0; u < filtered.num_nodes(); ++u) {
      if (filtered.Degree(u) > 0) {
        EXPECT_GE(g.Degree(u), cutoff);
      }
    }
  }
}

TEST_P(GraphPropertyTest, LabelPropagationLabelsNeverExceedComponents) {
  // Communities refine components: every community lies inside one
  // component, so there are at least as many communities as components
  // among non-isolated nodes... and labels are always valid.
  const auto g = RandomGraph(30, 0.1,
                             static_cast<uint64_t>(GetParam()) + 80);
  Rng rng(3);
  const auto lp = LabelPropagation(g, rng);
  const auto comps = ConnectedComponents(g);
  std::map<int, std::set<int>> components_of_community;
  for (int u = 0; u < g.num_nodes(); ++u)
    components_of_community[lp.label[static_cast<size_t>(u)]].insert(
        comps.label[static_cast<size_t>(u)]);
  for (const auto& [community, components] : components_of_community)
    EXPECT_EQ(components.size(), 1u) << "community spans components";
}

INSTANTIATE_TEST_SUITE_P(Random, GraphPropertyTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace dehealth
