#ifndef DEHEALTH_CORE_SIMILARITY_H_
#define DEHEALTH_CORE_SIMILARITY_H_

#include <utility>
#include <vector>

#include "core/simd_dispatch.h"
#include "core/uda_graph.h"

namespace dehealth {

/// Weights and parameters of the paper's structural similarity
/// s_uv = c1·s^d_uv + c2·s^s_uv + c3·s^a_uv.
struct SimilarityConfig {
  /// Paper defaults (Section V): low weight on degree and distance because
  /// the health graphs are sparse and disconnected; attribute similarity
  /// dominates.
  double c1 = 0.05;  // degree similarity weight
  double c2 = 0.05;  // distance (landmark) similarity weight
  double c3 = 0.9;   // attribute similarity weight
  int num_landmarks = 50;  // ħ

  /// Scale each attribute's weight l_u(A_i) by the inverse document
  /// frequency log((1+n2)/(1+df_i)) computed over the auxiliary users.
  /// The paper leaves the attribute weighting open; IDF suppresses
  /// population-wide attributes (everyone writes 'e's and DT-NN bigrams)
  /// so the rare, identifying ones dominate — essential when the corpus
  /// is topic-noisy (see the Fig. 4 bench and EXPERIMENTS.md).
  bool idf_weight_attributes = false;

  /// Threads used for landmark precomputation and ComputeMatrix
  /// (0 = hardware concurrency). Results are bitwise-identical for any
  /// value; see DESIGN.md "Threading model".
  int num_threads = 0;

  /// Instruction-set tier of the batched score kernel (--simd). Purely a
  /// throughput knob: every tier is bitwise-identical (DESIGN.md "Score
  /// kernel"). kAuto honors DEHEALTH_SIMD, then CPU detection.
  SimdMode simd = SimdMode::kAuto;
};

/// One user's precomputed similarity features — the exact inputs of the
/// pair-scoring kernel, and the one per-user record every scoring path
/// keeps: StructuralSimilarity's two sides, the candidate index's
/// auxiliary users and its anonymized queries, and the DHIX snapshot.
/// `attributes` is sorted by id and IDF-scaled when IDF is on.
struct UserFeatures {
  double degree = 0.0;
  double weighted_degree = 0.0;
  std::vector<double> ncs;
  std::vector<double> hop;
  std::vector<double> weighted_hop;
  std::vector<std::pair<int, double>> attributes;
};

/// Attribute IDF weights idf = log((1+n2)/(1+df)), with df counted over
/// the n2 auxiliary users. Both sides scale by the auxiliary table, so the
/// candidate index persists it and reuses it verbatim for its queries.
struct IdfTable {
  /// (attribute id, idf), sorted by id.
  std::vector<std::pair<int, double>> weights;
  /// IDF of an attribute never seen on the auxiliary side (df = 0).
  double default_weight = 1.0;
};

/// The IDF table of `auxiliary`.
IdfTable ComputeIdfTable(const UdaGraph& auxiliary);

/// Every user's features on one side: degrees, NCS vectors, the vectors to
/// the side's `num_landmarks` top-degree landmarks (precomputed across
/// `num_threads` threads; results identical for any value), and the
/// attribute list, each weight scaled by `idf` when it is non-null.
std::vector<UserFeatures> ComputeUserFeatures(const UdaGraph& side,
                                              int num_landmarks,
                                              int num_threads,
                                              const IdfTable* idf);

/// The pair-scoring kernel s_uv = c1·s^d + c2·s^s + c3·s^a. Both the dense
/// path (StructuralSimilarity::Combined) and the candidate index
/// (src/index/) call this ONE compiled function, so their exact scores are
/// bitwise-identical by construction — the determinism contract in
/// DESIGN.md "Candidate index" depends on it.
double CombinedStructuralScore(const SimilarityConfig& config,
                               const UserFeatures& u, const UserFeatures& v);

/// Precomputes every anonymized and auxiliary user's features (landmark
/// proximity vectors, NCS vectors, attribute lists) and scores pairs of
/// them. The three components are exposed separately (the theory benches
/// and the ablation bench sweep them independently).
class StructuralSimilarity {
 public:
  /// Copies what it needs: the graphs may be discarded afterwards.
  StructuralSimilarity(const UdaGraph& anonymized, const UdaGraph& auxiliary,
                       SimilarityConfig config = {});

  /// s^d: min/max degree ratio + min/max weighted-degree ratio +
  /// cos(D_u, D_v). Range [0, 3].
  double DegreeSimilarity(NodeId u, NodeId v) const;

  /// s^s: cos(H_u(S1), H_v(S2)) + cos(WH_u(S1), WH_v(S2)). Range [0, 2].
  double DistanceSimilarity(NodeId u, NodeId v) const;

  /// s^a: Jaccard + weighted Jaccard over attribute sets. Range [0, 2].
  double AttrSimilarity(NodeId u, NodeId v) const;

  /// c1·s^d + c2·s^s + c3·s^a.
  double Combined(NodeId u, NodeId v) const;

  /// Full similarity matrix: result[u][v] = Combined(u, v). O(n1·n2) —
  /// row-parallel across config().num_threads threads; bitwise-identical
  /// output for any thread count. Rows run through the batched FeatureStore
  /// kernel (config().simd picks the tier), which is bitwise-identical to
  /// the per-pair Combined().
  std::vector<std::vector<double>> ComputeMatrix() const;

  const SimilarityConfig& config() const { return config_; }
  int num_anonymized() const { return static_cast<int>(users_[0].size()); }
  int num_auxiliary() const { return static_cast<int>(users_[1].size()); }

 private:
  SimilarityConfig config_;
  // Per-user features (index 0 = anonymized side, 1 = auxiliary).
  std::vector<UserFeatures> users_[2];
};

/// Standalone weighted-Jaccard attribute similarity over flattened
/// attribute lists (sorted by id). Exposed for testing.
double FlattenedAttributeSimilarity(
    const std::vector<std::pair<int, int>>& a,
    const std::vector<std::pair<int, int>>& b);

/// Real-weighted variant (used internally when IDF scaling is on):
/// set Jaccard over the ids plus min/max weighted Jaccard over the
/// (already scaled) weights.
double FlattenedAttributeSimilarity(
    const std::vector<std::pair<int, double>>& a,
    const std::vector<std::pair<int, double>>& b);

}  // namespace dehealth

#endif  // DEHEALTH_CORE_SIMILARITY_H_
