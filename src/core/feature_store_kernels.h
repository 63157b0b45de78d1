#ifndef DEHEALTH_CORE_FEATURE_STORE_KERNELS_H_
#define DEHEALTH_CORE_FEATURE_STORE_KERNELS_H_

// Private contract between the FeatureStore driver (feature_store.cc) and
// the per-ISA block kernels (feature_store.cc scalar, feature_store_avx2.cc
// AVX2 — built as a separate translation unit so only it carries -mavx2).
//
// Every kernel scores ONE query against ONE block of
// FeatureStore::kBlockWidth candidates and must be bitwise-identical to
// CombinedStructuralScore: vectorization is across candidate lanes only,
// each lane accumulates its sums sequentially in ascending element (or
// attribute id) order, multiplies and adds stay separate (no FMA), and zero
// denominators are blended to 1.0 before dividing (the quotient is
// discarded via a zero numerator, and the UBSan job stays clean). See
// DESIGN.md "Score kernel" for why this reproduces the scalar bits exactly.

#include <cstdint>

#include "stylo/feature_layout.h"

namespace dehealth::internal {

inline constexpr int kScoreBlockWidth = 8;
/// Attribute ids are stylometric feature ids, so an id bitmap is this many
/// 64-bit words.
inline constexpr int kAttrIds = feature_layout::kTotalFeatures;
inline constexpr int kAttrWords = (kAttrIds + 63) / 64;

/// Flattened inputs of one block-scoring call. Candidate-side arrays are
/// lane-interleaved: element i of lane l lives at data[i * kScoreBlockWidth
/// + l]. Padded lanes carry all-zero features and no attributes.
struct BlockKernelArgs {
  // Query side.
  double q_degree = 0.0;
  double q_weighted_degree = 0.0;
  const double* q_ncs = nullptr;
  int q_ncs_len = 0;
  double q_ncs_norm = 0.0;
  const double* q_hop = nullptr;
  int q_hop_len = 0;
  double q_hop_norm = 0.0;
  const double* q_whop = nullptr;
  int q_whop_len = 0;
  double q_whop_norm = 0.0;
  const double* q_attr_weight = nullptr;  // [kAttrIds], +0.0 where absent
  const uint64_t* q_attr_bits = nullptr;  // [kAttrWords]
  double q_attr_count = 0.0;              // |A_u|
  double q_attr_total = 0.0;              // Σ weights, ascending id order
  /// Both sides' weights are exact small integers (ScoreQuery::attrs_exact).
  bool attrs_exact = false;
  // Candidate block (kScoreBlockWidth lanes).
  const double* degree = nullptr;           // [kScoreBlockWidth]
  const double* weighted_degree = nullptr;  // [kScoreBlockWidth]
  const double* ncs = nullptr;              // [ncs_stride * kScoreBlockWidth]
  int ncs_stride = 0;
  const double* hop = nullptr;              // [hop_stride * kScoreBlockWidth]
  int hop_stride = 0;
  const double* whop = nullptr;             // [whop_stride * kScoreBlockWidth]
  int whop_stride = 0;
  const double* ncs_norm = nullptr;         // [kScoreBlockWidth]
  const double* hop_norm = nullptr;         // [kScoreBlockWidth]
  const double* whop_norm = nullptr;        // [kScoreBlockWidth]
  // Attribute block: the ids any lane holds, one row of lane weights per
  // such id (ascending; +0.0 where a lane lacks it), and per-lane bitmaps,
  // set sizes and weight totals.
  const uint64_t* attr_union = nullptr;      // [kAttrWords]
  const double* attr_rows = nullptr;         // [popcount(union) * lanes]
  const uint64_t* attr_lane_bits = nullptr;  // [kScoreBlockWidth * kAttrWords]
  const double* attr_count = nullptr;        // [kScoreBlockWidth]
  const double* attr_total = nullptr;        // [kScoreBlockWidth]
  // Score weights.
  double c1 = 0.0;
  double c2 = 0.0;
  double c3 = 0.0;
};

// Helpers every kernel translation unit compiles for its own ISA. They
// have internal linkage, so the linker can never hand the scalar kernel a
// copy built with -mavx2; and they use builtins rather than <bit>, whose
// out-of-line std::popcount would be one shared copy again.
namespace {

/// The attribute walk both tiers share: visits the block's union rows in
/// ascending id order and hands each to `lanes` with the query's weight at
/// that id. `Lanes` is the tier's accumulator:
///
///  - Min(q, row): Σmin += min(q, row[l]) per lane — the exact-integer
///    walk over `block & query`, whose union comes from the totals;
///  - MinMax(q, row): Σmax += max(q, row[l]), Σmin += min(q, row[l]) — the
///    general walk over `block | query`, where a query-only id meets the
///    all-+0.0 `absent` row.
template <typename Lanes>
void WalkAttributes(const BlockKernelArgs& a, const double* absent,
                    Lanes& lanes) {
  const double* row = a.attr_rows;
  for (int w = 0; w < kAttrWords; ++w) {
    const uint64_t block = a.attr_union[w];
    const double* q_weight = a.q_attr_weight + w * 64;
    if (a.attrs_exact) {
      for (uint64_t hit = block & a.q_attr_bits[w]; hit != 0;
           hit &= hit - 1) {
        const int bit = __builtin_ctzll(hit);
        const uint64_t below = block & ((uint64_t{1} << bit) - 1);
        lanes.Min(q_weight[bit],
                  row + __builtin_popcountll(below) * kScoreBlockWidth);
      }
      row += __builtin_popcountll(block) * kScoreBlockWidth;
    } else {
      for (uint64_t walk = block | a.q_attr_bits[w]; walk != 0;
           walk &= walk - 1) {
        const int bit = __builtin_ctzll(walk);
        // Select the row without a branch: whether the block holds an id
        // is data, and a mispredicted branch costs more than the step.
        const uint64_t held = (block >> bit) & 1;
        const uintptr_t pick =
            (reinterpret_cast<uintptr_t>(row) & (0 - held)) |
            (reinterpret_cast<uintptr_t>(absent) & (held - 1));
        lanes.MinMax(q_weight[bit], reinterpret_cast<const double*>(pick));
        row += held * kScoreBlockWidth;
      }
    }
  }
}

/// |A_u ∩ A_v| of lane `lane`: popcount(lane & query).
inline int SharedAttributes(const BlockKernelArgs& a, int lane) {
  const uint64_t* bits = a.attr_lane_bits + lane * kAttrWords;
  int shared = 0;
  for (int w = 0; w < kAttrWords; ++w)
    shared += __builtin_popcountll(bits[w] & a.q_attr_bits[w]);
  return shared;
}

}  // namespace

using BlockKernelFn = void (*)(const BlockKernelArgs& args,
                               double out[kScoreBlockWidth]);

/// Portable golden-path kernel (always available).
void ScoreBlockScalar(const BlockKernelArgs& args,
                      double out[kScoreBlockWidth]);

/// The AVX2 kernel, or nullptr when its translation unit was built without
/// -mavx2.
BlockKernelFn Avx2BlockKernel();

}  // namespace dehealth::internal

#endif  // DEHEALTH_CORE_FEATURE_STORE_KERNELS_H_
