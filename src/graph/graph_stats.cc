#include "graph/graph_stats.h"

#include <algorithm>
#include <unordered_set>

#include "graph/community.h"

namespace dehealth {

double LocalClusteringCoefficient(const CorrelationGraph& graph, NodeId u) {
  const auto& neighbors = graph.Neighbors(u);
  const size_t d = neighbors.size();
  if (d < 2) return 0.0;
  std::unordered_set<NodeId> neighbor_set;
  neighbor_set.reserve(d);
  for (const auto& nb : neighbors) neighbor_set.insert(nb.id);
  long long closed = 0;
  for (const auto& nb : neighbors)
    for (const auto& nb2 : graph.Neighbors(nb.id))
      if (nb2.id != u && neighbor_set.count(nb2.id)) ++closed;
  // Each triangle edge counted twice (once from each endpoint).
  const double possible = static_cast<double>(d) * (d - 1);
  return static_cast<double>(closed) / possible;
}

GraphSummary SummarizeGraph(const CorrelationGraph& graph) {
  GraphSummary s;
  s.num_nodes = graph.num_nodes();
  s.num_edges = graph.num_edges();
  if (s.num_nodes == 0) return s;

  double degree_sum = 0.0, weighted_sum = 0.0, clustering_sum = 0.0;
  int clustered_nodes = 0, isolated = 0;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const int d = graph.Degree(u);
    degree_sum += d;
    weighted_sum += graph.WeightedDegree(u);
    s.max_degree = std::max(s.max_degree, d);
    if (d == 0) ++isolated;
    if (d >= 2) {
      clustering_sum += LocalClusteringCoefficient(graph, u);
      ++clustered_nodes;
    }
  }
  s.mean_degree = degree_sum / s.num_nodes;
  s.mean_weighted_degree = weighted_sum / s.num_nodes;
  s.isolated_fraction = static_cast<double>(isolated) / s.num_nodes;
  if (clustered_nodes > 0) s.mean_clustering = clustering_sum / clustered_nodes;

  const ComponentResult comps = ConnectedComponents(graph);
  s.num_components = comps.num_components;
  for (int size : ComponentSizes(comps))
    s.largest_component = std::max(s.largest_component, size);
  return s;
}

}  // namespace dehealth
