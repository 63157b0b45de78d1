#ifndef DEHEALTH_GRAPH_GRAPH_STATS_H_
#define DEHEALTH_GRAPH_GRAPH_STATS_H_

#include <vector>

#include "graph/correlation_graph.h"

namespace dehealth {

/// Descriptive statistics of a correlation graph (the Appendix-B analysis
/// surface: degree distribution, connectivity, clustering).
struct GraphSummary {
  int num_nodes = 0;
  int num_edges = 0;
  double mean_degree = 0.0;
  int max_degree = 0;
  double mean_weighted_degree = 0.0;
  /// Fraction of nodes with degree 0.
  double isolated_fraction = 0.0;
  /// Global average of local clustering coefficients (degree >= 2 nodes).
  double mean_clustering = 0.0;
  int num_components = 0;       // including singletons
  int largest_component = 0;
};

/// Computes the summary. Clustering is O(sum of d_u^2) — fine on the
/// sparse health graphs.
GraphSummary SummarizeGraph(const CorrelationGraph& graph);

/// Local clustering coefficient of `u`: closed-triangle fraction among
/// neighbor pairs. 0 for degree < 2.
double LocalClusteringCoefficient(const CorrelationGraph& graph, NodeId u);

}  // namespace dehealth

#endif  // DEHEALTH_GRAPH_GRAPH_STATS_H_
