#ifndef DEHEALTH_CORE_FEATURE_STORE_KERNELS_H_
#define DEHEALTH_CORE_FEATURE_STORE_KERNELS_H_

// Private contract between the FeatureStore driver (feature_store.cc) and
// the per-ISA block kernels (feature_store.cc scalar, feature_store_avx2.cc
// AVX2 — built as a separate translation unit so only it carries -mavx2).
//
// Every kernel scores ONE query against ONE block of
// FeatureStore::kBlockWidth candidates and must be bitwise-identical to
// CombinedStructuralScore: vectorization is across candidate lanes only,
// each lane accumulates its dot products sequentially in ascending element
// order, multiplies and adds stay separate (no FMA), and zero denominators
// are blended to 1.0 before dividing (the quotient is discarded via a
// zero numerator, and the UBSan job stays clean). See DESIGN.md
// "Score kernel" for why this reproduces the scalar bits exactly.

namespace dehealth::internal {

inline constexpr int kScoreBlockWidth = 8;

/// Flattened inputs of one block-scoring call. Candidate-side arrays are
/// lane-interleaved: element i of lane l lives at data[i * kScoreBlockWidth
/// + l]. `attr_sim` is precomputed by the driver (the attribute merge is
/// scalar in every tier); padded lanes carry all-zero features.
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
  const double* attr_sim = nullptr;         // [kScoreBlockWidth]
  // Score weights.
  double c1 = 0.0;
  double c2 = 0.0;
  double c3 = 0.0;
};

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
