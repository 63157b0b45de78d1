#ifndef DEHEALTH_CORE_FEATURE_STORE_H_
#define DEHEALTH_CORE_FEATURE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/similarity.h"
#include "core/simd_dispatch.h"

namespace dehealth {

/// Per-query precomputation shared by every FeatureStore scoring call: the
/// three vector norms (so the kernel divides by the same sqrt bits the
/// scalar path computes per pair, once instead of once per candidate) and
/// the query's attributes as the walk reads them — a presence bitmap and a
/// dense weight by id. Borrows the query's features — they must outlive the
/// ScoreQuery.
struct ScoreQuery {
  const UserFeatures* user = nullptr;
  double ncs_norm = 0.0;
  double hop_norm = 0.0;
  double whop_norm = 0.0;
  /// True when every query and stored attribute weight is an exact small
  /// integer (see FeatureStore::attrs_exact()): the kernel then walks only
  /// the ids both sides hold and takes the union from the totals.
  bool attrs_exact = false;
  double attr_count = 0.0;  // |A_u|
  double attr_total = 0.0;  // Σ weights in ascending id order
  /// Presence bitmap and weight by id (+0.0 where the query lacks the
  /// id), sized for every stylometric feature id.
  std::vector<uint64_t> attr_bits;
  std::vector<double> attr_weight;
};

/// True when the attribute walk can add `weight`: finite, non-negative and
/// not -0.0 (DESIGN.md "Score kernel" says why the walk needs each).
bool IsWalkableWeight(double weight);

/// OK when `attributes` can be scored by the attribute walk: ids strictly
/// ascending in [0, kTotalFeatures) and every weight IsWalkableWeight.
/// Else InvalidArgument naming the first defect, prefixed with `what`.
Status CheckWalkableAttributes(
    const std::vector<std::pair<int, double>>& attributes, const char* what);

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
///  - attributes are laid out per block for the attribute walk: a bitmap
///    of every id any lane holds, one row of kBlockWidth lane weights per
///    such id in ascending order (+0.0 where a lane lacks the id), one
///    presence bitmap per lane, and per-lane set sizes and weight totals.
///
/// Scores from ScoreRow are bitwise-identical to
/// CombinedStructuralScore on the original features for every SimdMode —
/// the equivalence suite in tests/core/feature_store_test.cc holds each
/// tier to that, and DESIGN.md "Score kernel" gives the argument.
class FeatureStore {
 public:
  static constexpr int kBlockWidth = 8;

  FeatureStore() = default;

  /// Packs one side's features (typically the auxiliary side) across
  /// `num_threads` threads (0 = all hardware threads; the store is the same
  /// for any value). Copies all vector/attribute data; `users` may be
  /// discarded afterwards. Every attribute list must pass
  /// CheckWalkableAttributes.
  static FeatureStore Build(const std::vector<UserFeatures>& users,
                            int num_threads = 0);

  int num_users() const { return num_users_; }
  int num_blocks() const { return num_blocks_; }
  /// True when every stored attribute weight is an exact non-negative
  /// integer <= 2^26 (always the case without IDF scaling, where weights
  /// are raw post counts) — the regime in which floating-point summation
  /// is exact, so the union follows from the totals and the walk need only
  /// visit the ids both sides hold.
  bool attrs_exact() const { return attrs_exact_; }

  /// Precomputes the per-query state for ScoreRow. `query` must outlive
  /// the returned ScoreQuery, and its attribute list must pass
  /// CheckWalkableAttributes.
  ScoreQuery MakeQuery(const UserFeatures& query) const;

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
  // Attribute walk layout. Each block owns (1 + kBlockWidth) bitmaps of
  // internal::kAttrWords words — the union of its lanes' ids, then one per
  // lane — and its rows of kBlockWidth lane weights, one per union id in
  // ascending order.
  std::vector<uint64_t> attr_bits_;
  std::vector<std::vector<double>> attr_rows_;  // [num_blocks]
  std::vector<double> attr_count_;  // padded like degree_
  std::vector<double> attr_total_;  // padded like degree_
  bool attrs_exact_ = true;
};

}  // namespace dehealth

#endif  // DEHEALTH_CORE_FEATURE_STORE_H_
