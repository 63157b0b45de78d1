#include "engines/blind.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "obs/standard_metrics.h"

namespace dehealth {

namespace {

/// Log2 bins of the neighbor-degree distribution; degree d lands in bin
/// floor(log2(d)) clamped to the last bin, so the histogram
/// compares coarse neighborhood shape instead of exact degree sequences
/// (robust to the sparse, noisy health graphs).
constexpr int kDegreeBins = 16;

int DegreeBin(int degree) {
  int bin = 0;
  while (degree > 1 && bin < kDegreeBins - 1) {
    degree >>= 1;
    ++bin;
  }
  return bin;
}

/// Per-node structural profile of one side, precomputed once.
struct SideProfile {
  std::vector<double> degree;
  std::vector<double> weighted_degree;
  /// Normalized neighbor-degree histogram (empty for isolated nodes).
  std::vector<std::vector<double>> histogram;
  /// Highest-degree neighbors (ties: smaller id), capped at max_neighbors.
  std::vector<std::vector<NodeId>> top_neighbors;
};

SideProfile ProfileSide(const UdaGraph& side, int max_neighbors) {
  const CorrelationGraph& graph = side.graph;
  const int n = graph.num_nodes();
  SideProfile profile;
  profile.degree.resize(static_cast<size_t>(n));
  profile.weighted_degree.resize(static_cast<size_t>(n));
  profile.histogram.resize(static_cast<size_t>(n));
  profile.top_neighbors.resize(static_cast<size_t>(n));
  for (NodeId u = 0; u < n; ++u) {
    profile.degree[static_cast<size_t>(u)] = graph.Degree(u);
    profile.weighted_degree[static_cast<size_t>(u)] = graph.WeightedDegree(u);
    const auto& neighbors = graph.Neighbors(u);
    if (neighbors.empty()) continue;
    std::vector<double>& hist = profile.histogram[static_cast<size_t>(u)];
    hist.assign(kDegreeBins, 0.0);
    for (const auto& nb : neighbors)
      hist[static_cast<size_t>(DegreeBin(graph.Degree(nb.id)))] += 1.0;
    for (double& h : hist) h /= static_cast<double>(neighbors.size());

    std::vector<NodeId>& top = profile.top_neighbors[static_cast<size_t>(u)];
    top.reserve(neighbors.size());
    for (const auto& nb : neighbors) top.push_back(nb.id);
    std::sort(top.begin(), top.end(), [&](NodeId a, NodeId b) {
      if (graph.Degree(a) != graph.Degree(b))
        return graph.Degree(a) > graph.Degree(b);
      return a < b;
    });
    if (static_cast<int>(top.size()) > max_neighbors)
      top.resize(static_cast<size_t>(max_neighbors));
  }
  return profile;
}

/// min/max ratio in [0, 1]; two zeros agree perfectly.
double RatioSimilarity(double a, double b) {
  if (a == 0.0 && b == 0.0) return 1.0;
  if (a == 0.0 || b == 0.0) return 0.0;
  return a < b ? a / b : b / a;
}

double HistogramSimilarity(const std::vector<double>& a,
                           const std::vector<double>& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  double l1 = 0.0;
  for (int i = 0; i < kDegreeBins; ++i)
    l1 += std::fabs(a[static_cast<size_t>(i)] - b[static_cast<size_t>(i)]);
  return 1.0 - 0.5 * l1;
}

/// One (score, anon neighbor slot, aux neighbor slot) propagation
/// candidate; ranked by descending score with slot-index tie-breaks so the
/// greedy matching is a total order independent of anything but the
/// previous round's scores.
struct NeighborPair {
  double score;
  int i;
  int j;
};

bool BetterNeighborPair(const NeighborPair& a, const NeighborPair& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.i != b.i) return a.i < b.i;
  return a.j < b.j;
}

}  // namespace

StatusOr<std::vector<std::vector<double>>> BuildBlindMatrix(
    const UdaGraph& anonymized, const UdaGraph& auxiliary,
    const BlindConfig& config) {
  if (config.propagation_rounds < 0)
    return Status::InvalidArgument(
        "BuildBlindMatrix: propagation_rounds must be >= 0");
  if (!(config.alpha >= 0.0 && config.alpha <= 1.0))
    return Status::InvalidArgument(
        "BuildBlindMatrix: alpha must be in [0, 1]");
  if (config.max_neighbors < 1)
    return Status::InvalidArgument(
        "BuildBlindMatrix: max_neighbors must be >= 1");

  const int n1 = anonymized.num_users();
  const int n2 = auxiliary.num_users();
  const SideProfile anon = ProfileSide(anonymized, config.max_neighbors);
  const SideProfile aux = ProfileSide(auxiliary, config.max_neighbors);

  // Seed scores: pure per-pair structure, row-parallel.
  std::vector<std::vector<double>> seed(static_cast<size_t>(n1));
  ParallelFor(
      0, n1,
      [&](int64_t u) {
        std::vector<double>& row = seed[static_cast<size_t>(u)];
        row.resize(static_cast<size_t>(n2));
        for (int v = 0; v < n2; ++v) {
          const double d = RatioSimilarity(anon.degree[static_cast<size_t>(u)],
                                           aux.degree[static_cast<size_t>(v)]);
          const double wd =
              RatioSimilarity(anon.weighted_degree[static_cast<size_t>(u)],
                              aux.weighted_degree[static_cast<size_t>(v)]);
          const double h =
              HistogramSimilarity(anon.histogram[static_cast<size_t>(u)],
                                  aux.histogram[static_cast<size_t>(v)]);
          row[static_cast<size_t>(v)] = (d + wd + h) / 3.0;
        }
      },
      config.num_threads);

  std::vector<std::vector<double>> current = seed;
  std::vector<std::vector<double>> next(static_cast<size_t>(n1));
  for (int round = 0; round < config.propagation_rounds; ++round) {
    // Double-buffered: every task reads only `current` (frozen this
    // round) and writes its own `next` row, so the result is a pure
    // function of the round inputs — bitwise thread-invariant.
    ParallelFor(
        0, n1,
        [&](int64_t u) {
          const std::vector<NodeId>& nu =
              anon.top_neighbors[static_cast<size_t>(u)];
          std::vector<double>& row = next[static_cast<size_t>(u)];
          row.resize(static_cast<size_t>(n2));
          std::vector<NeighborPair> pairs;
          std::vector<char> used_i, used_j;
          for (int v = 0; v < n2; ++v) {
            const std::vector<NodeId>& nv =
                aux.top_neighbors[static_cast<size_t>(v)];
            double prop;
            if (nu.empty() && nv.empty()) {
              // No neighborhood evidence either way: carry the seed score.
              prop = seed[static_cast<size_t>(u)][static_cast<size_t>(v)];
            } else if (nu.empty() || nv.empty()) {
              // One side isolated, the other not: structural contradiction.
              prop = 0.0;
            } else {
              pairs.clear();
              for (size_t i = 0; i < nu.size(); ++i)
                for (size_t j = 0; j < nv.size(); ++j)
                  pairs.push_back(
                      {current[static_cast<size_t>(nu[i])]
                              [static_cast<size_t>(nv[j])],
                       static_cast<int>(i), static_cast<int>(j)});
              std::sort(pairs.begin(), pairs.end(), BetterNeighborPair);
              used_i.assign(nu.size(), 0);
              used_j.assign(nv.size(), 0);
              double matched = 0.0;
              size_t matches = 0;
              const size_t want = std::min(nu.size(), nv.size());
              for (const NeighborPair& p : pairs) {
                if (used_i[static_cast<size_t>(p.i)] ||
                    used_j[static_cast<size_t>(p.j)])
                  continue;
                used_i[static_cast<size_t>(p.i)] = 1;
                used_j[static_cast<size_t>(p.j)] = 1;
                matched += p.score;
                if (++matches == want) break;
              }
              // Averaging over the LARGER neighborhood penalizes degree
              // mismatch the greedy matching itself cannot see.
              prop = matched /
                     static_cast<double>(std::max(nu.size(), nv.size()));
            }
            row[static_cast<size_t>(v)] =
                (1.0 - config.alpha) *
                    seed[static_cast<size_t>(u)][static_cast<size_t>(v)] +
                config.alpha * prop;
          }
        },
        config.num_threads);
    std::swap(current, next);
    obs::GetEngineMetrics().blind_rounds->Increment();
  }
  return current;
}

}  // namespace dehealth
