#include "core/similarity.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/math_utils.h"
#include "common/parallel.h"
#include "core/feature_store.h"
#include "graph/landmarks.h"
#include "obs/standard_metrics.h"
#include "obs/trace.h"

namespace dehealth {

namespace {

// Shared merge-join over (id, weight) lists sorted by id. Templated on the
// weight type so the int overload runs the identical expression tree over
// doubles (each weight cast at use) without materializing converted copies
// — the old int overload heap-allocated two vectors per call, which
// dominated scoring cost for high-attribute users.
template <typename W1, typename W2>
double FlattenedAttributeSimilarityImpl(
    const std::vector<std::pair<int, W1>>& a,
    const std::vector<std::pair<int, W2>>& b) {
  if (a.empty() && b.empty()) return 0.0;
  size_t set_intersection = 0;
  double weight_intersection = 0.0, weight_union = 0.0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].first < b[j].first) {
      weight_union += static_cast<double>(a[i].second);
      ++i;
    } else if (b[j].first < a[i].first) {
      weight_union += static_cast<double>(b[j].second);
      ++j;
    } else {
      ++set_intersection;
      weight_intersection += std::min(static_cast<double>(a[i].second),
                                      static_cast<double>(b[j].second));
      weight_union += std::max(static_cast<double>(a[i].second),
                               static_cast<double>(b[j].second));
      ++i;
      ++j;
    }
  }
  for (; i < a.size(); ++i)
    weight_union += static_cast<double>(a[i].second);
  for (; j < b.size(); ++j)
    weight_union += static_cast<double>(b[j].second);

  const size_t set_union = a.size() + b.size() - set_intersection;
  double sim = 0.0;
  if (set_union > 0)
    sim += static_cast<double>(set_intersection) /
           static_cast<double>(set_union);
  if (weight_union > 0) sim += weight_intersection / weight_union;
  return sim;
}

/// `table` by attribute id: one dense vector per call instead of a binary
/// search per attribute. Ids past the table's largest (and every id it
/// lacks) read default_weight, which is what the table means for them.
std::vector<double> IdfById(const IdfTable& table) {
  std::vector<double> by_id(
      table.weights.empty() ? 0 : static_cast<size_t>(
                                      table.weights.back().first) + 1,
      table.default_weight);
  for (const auto& [id, weight] : table.weights)
    by_id[static_cast<size_t>(id)] = weight;
  return by_id;
}

}  // namespace

double FlattenedAttributeSimilarity(
    const std::vector<std::pair<int, double>>& a,
    const std::vector<std::pair<int, double>>& b) {
  return FlattenedAttributeSimilarityImpl(a, b);
}

double FlattenedAttributeSimilarity(
    const std::vector<std::pair<int, int>>& a,
    const std::vector<std::pair<int, int>>& b) {
  return FlattenedAttributeSimilarityImpl(a, b);
}

IdfTable ComputeIdfTable(const UdaGraph& auxiliary) {
  std::vector<int> document_frequency;  // by attribute id
  for (const UserProfile& profile : auxiliary.profiles)
    for (const auto& [id, weight] : profile.attributes()) {
      assert(id >= 0);
      if (static_cast<size_t>(id) >= document_frequency.size())
        document_frequency.resize(static_cast<size_t>(id) + 1, 0);
      ++document_frequency[static_cast<size_t>(id)];
    }
  const double n2 = static_cast<double>(auxiliary.num_users());
  IdfTable table;
  for (size_t id = 0; id < document_frequency.size(); ++id)
    if (const int df = document_frequency[id]; df > 0)
      table.weights.emplace_back(
          static_cast<int>(id),
          std::log((1.0 + n2) / (1.0 + static_cast<double>(df))));
  table.default_weight = std::log((1.0 + n2) / (1.0 + 0.0));
  return table;
}

std::vector<UserFeatures> ComputeUserFeatures(const UdaGraph& side,
                                              int num_landmarks,
                                              int num_threads,
                                              const IdfTable* idf) {
  const int n = side.num_users();
  obs::Span span("core", "user_features");
  span.SetArg("users", n);
  const LandmarkIndex landmarks(side.graph, num_landmarks, num_threads);
  const std::vector<double> idf_by_id =
      idf == nullptr ? std::vector<double>() : IdfById(*idf);
  std::vector<UserFeatures> users(static_cast<size_t>(n));
  // Each user fills only its own slot: identical for any thread count.
  ParallelFor(
      0, n,
      [&](int64_t i) {
        const auto u = static_cast<NodeId>(i);
        UserFeatures& f = users[static_cast<size_t>(u)];
        f.degree = side.graph.Degree(u);
        f.weighted_degree = side.graph.WeightedDegree(u);
        f.ncs = side.graph.NcsVector(u);
        f.hop = landmarks.HopVector(u);
        f.weighted_hop = landmarks.WeightedVector(u);
        const auto& attributes =
            side.profiles[static_cast<size_t>(u)].attributes();
        f.attributes.reserve(attributes.size());
        for (const auto& [id, weight] : attributes) {
          if (idf == nullptr) {
            f.attributes.emplace_back(id, weight);
            continue;
          }
          const auto at = static_cast<size_t>(id);
          f.attributes.emplace_back(
              id, weight * (at < idf_by_id.size() ? idf_by_id[at]
                                                  : idf->default_weight));
        }
      },
      num_threads);
  return users;
}

StructuralSimilarity::StructuralSimilarity(const UdaGraph& anonymized,
                                           const UdaGraph& auxiliary,
                                           SimilarityConfig config)
    : config_(config) {
  // Both sides scale by the auxiliary side's document frequencies.
  IdfTable idf;
  if (config_.idf_weight_attributes) idf = ComputeIdfTable(auxiliary);
  const IdfTable* scale = config_.idf_weight_attributes ? &idf : nullptr;
  users_[0] = ComputeUserFeatures(anonymized, config_.num_landmarks,
                                  config_.num_threads, scale);
  users_[1] = ComputeUserFeatures(auxiliary, config_.num_landmarks,
                                  config_.num_threads, scale);
}

double StructuralSimilarity::DegreeSimilarity(NodeId u, NodeId v) const {
  const UserFeatures& a = users_[0][static_cast<size_t>(u)];
  const UserFeatures& b = users_[1][static_cast<size_t>(v)];
  return MinMaxRatio(a.degree, b.degree) +
         MinMaxRatio(a.weighted_degree, b.weighted_degree) +
         CosineSimilarity(a.ncs, b.ncs);
}

double StructuralSimilarity::DistanceSimilarity(NodeId u, NodeId v) const {
  const UserFeatures& a = users_[0][static_cast<size_t>(u)];
  const UserFeatures& b = users_[1][static_cast<size_t>(v)];
  return CosineSimilarity(a.hop, b.hop) +
         CosineSimilarity(a.weighted_hop, b.weighted_hop);
}

double StructuralSimilarity::AttrSimilarity(NodeId u, NodeId v) const {
  return FlattenedAttributeSimilarity(
      users_[0][static_cast<size_t>(u)].attributes,
      users_[1][static_cast<size_t>(v)].attributes);
}

double CombinedStructuralScore(const SimilarityConfig& config,
                               const UserFeatures& u, const UserFeatures& v) {
  const double degree_sim = MinMaxRatio(u.degree, v.degree) +
                            MinMaxRatio(u.weighted_degree, v.weighted_degree) +
                            CosineSimilarity(u.ncs, v.ncs);
  const double distance_sim = CosineSimilarity(u.hop, v.hop) +
                              CosineSimilarity(u.weighted_hop, v.weighted_hop);
  const double attr_sim = FlattenedAttributeSimilarity(u.attributes,
                                                       v.attributes);
  return config.c1 * degree_sim + config.c2 * distance_sim +
         config.c3 * attr_sim;
}

double StructuralSimilarity::Combined(NodeId u, NodeId v) const {
  return CombinedStructuralScore(config_, users_[0][static_cast<size_t>(u)],
                                 users_[1][static_cast<size_t>(v)]);
}

std::vector<std::vector<double>> StructuralSimilarity::ComputeMatrix() const {
  const int n1 = num_anonymized();
  const int n2 = num_auxiliary();
  obs::Span span("core", "similarity_matrix");
  span.SetArg("rows", n1);
  obs::CoreMetrics& metrics = obs::GetCoreMetrics();
  metrics.similarity_matrices->Increment();
  metrics.similarity_rows->Increment(static_cast<uint64_t>(n1));
  std::vector<std::vector<double>> matrix(
      static_cast<size_t>(n1), std::vector<double>(static_cast<size_t>(n2)));

  // Pack the auxiliary side into the blocked SoA store once, then score
  // whole rows through the batched kernel — bitwise-identical to calling
  // Combined() per pair (tests/core/feature_store_test.cc pins this).
  const FeatureStore store =
      FeatureStore::Build(users_[1], config_.num_threads);

  // Row-parallel: each task owns exactly one preallocated row, so the
  // result is bitwise-identical for any thread count.
  ParallelFor(
      0, n1,
      [&](int64_t u) {
        const auto su = static_cast<size_t>(u);
        store.ScoreRow(config_, store.MakeQuery(users_[0][su]),
                       matrix[su].data());
      },
      config_.num_threads);
  return matrix;
}

}  // namespace dehealth
