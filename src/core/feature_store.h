#ifndef DEHEALTH_CORE_FEATURE_STORE_H_
#define DEHEALTH_CORE_FEATURE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/similarity.h"
#include "core/simd_dispatch.h"

namespace dehealth {

/// Per-query precomputation shared by every FeatureStore scoring call: the
/// three vector norms (so the kernel divides by the same sqrt bits the
/// scalar path computes per pair, once instead of once per candidate) and,
/// when the attribute weights on both sides are exact small integers, a
/// dense weight-by-id lookup table that turns the O(|A_u|+|A_v|) branchy
/// merge into an O(|A_v|) scan. Borrows the query's feature vectors — they
/// must outlive the ScoreQuery.
struct ScoreQuery {
  double degree = 0.0;
  double weighted_degree = 0.0;
  const std::vector<double>* ncs = nullptr;
  const std::vector<double>* hop = nullptr;
  const std::vector<double>* weighted_hop = nullptr;
  const std::vector<std::pair<int, double>>* attributes = nullptr;
  double ncs_norm = 0.0;
  double hop_norm = 0.0;
  double whop_norm = 0.0;
  /// True when every query attribute weight is an exact non-negative small
  /// integer (see FeatureStore::attrs_exact()); required for the dense
  /// fast path, which relies on exact (order-free) summation.
  bool attrs_exact = false;
  double attr_total = 0.0;
  /// Dense query weight by attribute id, sized to the store's max id + 1;
  /// attr_present[id] distinguishes "absent" from a zero weight.
  std::vector<double> attr_weight;
  std::vector<uint8_t> attr_present;
};

/// Cache-blocked SoA mirror of one side's per-user similarity features,
/// laid out for the batched score kernel:
///
///  - hop / weighted-hop / NCS vectors live in fixed-stride, lane-
///    interleaved blocks of kBlockWidth users (element i of user
///    `block*kBlockWidth + lane` at data[block_base + i*kBlockWidth +
///    lane]), zero-padded to the stride — bitwise-neutral for the cosine
///    accumulation, so SIMD lanes can run candidates in lockstep;
///  - per-user norms are precomputed once (sqrt of the same ascending-order
///    sum of squares the scalar kernel forms per pair);
///  - attribute lists are CSR-packed ((id, weight) runs behind a prefix
///    offset array) with per-user totals for the exact-integer union
///    shortcut.
///
/// Scores from ScoreRow are bitwise-identical to
/// CombinedStructuralScore on the original features for every SimdMode —
/// the equivalence suite in tests/core/feature_store_test.cc holds each
/// tier to that, and DESIGN.md "Score kernel" gives the argument.
class FeatureStore {
 public:
  static constexpr int kBlockWidth = 8;

  FeatureStore() = default;

  /// Packs one side's features (typically the auxiliary side). Copies all
  /// vector/attribute data; `users` views may be discarded afterwards.
  static FeatureStore Build(const std::vector<UserFeatureView>& users);

  int num_users() const { return num_users_; }
  int num_blocks() const { return num_blocks_; }
  /// True when every stored attribute weight is an exact non-negative
  /// integer <= 2^26 with per-user totals <= 2^52 (always the case without
  /// IDF scaling, where weights are raw post counts) — the regime in which
  /// floating-point summation is exact and the dense-lookup attribute path
  /// is bitwise-equal to the merge.
  bool attrs_exact() const { return attrs_exact_; }
  int max_attribute_id() const { return max_attr_id_; }

  /// Precomputes the per-query state for ScoreRow. `query`'s
  /// vectors must outlive the returned ScoreQuery.
  ScoreQuery MakeQuery(const UserFeatureView& query) const;

  /// Scores `query` against every stored user into out[0..num_users()),
  /// running the block kernel of ResolveSimdMode(config.simd). Updates the
  /// core_simd_kernel gauge and the score-block-size histogram.
  void ScoreRow(const SimilarityConfig& config, const ScoreQuery& query,
                double* out) const;

 private:
  int num_users_ = 0;
  int num_blocks_ = 0;
  int hop_stride_ = 0;
  int whop_stride_ = 0;
  // Lane-interleaved block data (padded lanes are all-zero users).
  std::vector<double> degree_;           // [num_blocks * kBlockWidth]
  std::vector<double> weighted_degree_;  // [num_blocks * kBlockWidth]
  std::vector<double> hop_;    // [num_blocks * hop_stride * kBlockWidth]
  std::vector<double> whop_;   // [num_blocks * whop_stride * kBlockWidth]
  // NCS vectors vary per user (length = degree), so each block gets its
  // own stride = max length within the block.
  std::vector<double> ncs_;
  std::vector<size_t> ncs_offset_;  // [num_blocks]
  std::vector<int> ncs_stride_;     // [num_blocks]
  // Precomputed norms, padded like degree_.
  std::vector<double> hop_norm_;
  std::vector<double> whop_norm_;
  std::vector<double> ncs_norm_;
  // CSR-packed attributes (ids ascending within a user).
  std::vector<size_t> attr_offset_;  // [num_users + 1]
  std::vector<int32_t> attr_id_;
  std::vector<double> attr_weight_;
  std::vector<double> attr_total_;   // [num_users]
  bool attrs_exact_ = true;
  int max_attr_id_ = -1;

  /// s^a of `query` vs stored user v — dense fast path when both sides are
  /// exact-integer, else the golden two-pointer merge. Bitwise equal to
  /// FlattenedAttributeSimilarity either way.
  double AttrSimilarity(const ScoreQuery& query, int v) const;
};

}  // namespace dehealth

#endif  // DEHEALTH_CORE_FEATURE_STORE_H_
