// AVX2 block kernel. This translation unit is the only one compiled with
// -mavx2 (see src/core/CMakeLists.txt); when the toolchain can't target
// AVX2 the fallback stub below keeps the link whole and dispatch falls
// through to the scalar kernel.
//
// Bitwise-identity rules (see feature_store_kernels.h): vectorize across
// candidate lanes only, sequential ascending-order accumulation per lane
// (the attribute walk included), explicit mul/add intrinsics (never
// contracted to FMA), zero denominators blended to 1.0 before the divide.

#include "core/feature_store_kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

namespace dehealth::internal {

namespace {

constexpr int kVec = 4;  // doubles per __m256d
constexpr int kHalves = kScoreBlockWidth / kVec;

/// min(a,b)/max(a,b) with MinMaxRatio's 0/0 -> 1 convention, four lanes at
/// a time. Inputs are non-negative degrees, so _mm256_min_pd/_mm256_max_pd
/// agree with std::min/std::max bitwise.
inline __m256d MinMaxRatioVec(__m256d q, __m256d d) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d mx = _mm256_max_pd(q, d);
  const __m256d mn = _mm256_min_pd(q, d);
  const __m256d both_zero = _mm256_cmp_pd(mx, zero, _CMP_EQ_OQ);
  const __m256d safe_mx = _mm256_blendv_pd(mx, one, both_zero);
  const __m256d ratio = _mm256_div_pd(mn, safe_mx);
  return _mm256_blendv_pd(ratio, one, both_zero);
}

/// Cosine term for lanes [half*4, half*4+4): one accumulator per lane,
/// elements added in ascending order.
inline __m256d CosineVec(const double* q, int q_len, double q_norm,
                         const double* data, int stride,
                         const double* v_norm, int half) {
  const __m256d zero = _mm256_setzero_pd();
  if (q_norm == 0.0) return zero;
  const int n = std::min(q_len, stride);
  __m256d dot = zero;
  const double* base = data + half * kVec;
  for (int i = 0; i < n; ++i) {
    const __m256d qv = _mm256_set1_pd(q[i]);
    const __m256d x = _mm256_loadu_pd(base + i * kScoreBlockWidth);
    dot = _mm256_add_pd(dot, _mm256_mul_pd(qv, x));
  }
  const __m256d vn = _mm256_loadu_pd(v_norm + half * kVec);
  const __m256d vn_zero = _mm256_cmp_pd(vn, zero, _CMP_EQ_OQ);
  // Where the candidate norm is 0 its lane's dot is +0.0 too; divide by
  // 1.0 there so +0/1 reproduces the scalar early-return's 0.0 without a
  // 0/0 NaN.
  __m256d denom = _mm256_mul_pd(_mm256_set1_pd(q_norm), vn);
  denom = _mm256_blendv_pd(denom, _mm256_set1_pd(1.0), vn_zero);
  return _mm256_div_pd(dot, denom);
}

/// The AVX2 tier's attribute accumulators: lanes [h*4, h*4+4) in
/// element h. Inputs are non-negative and never -0.0 or NaN (FromData
/// rejects them), so _mm256_min_pd/_mm256_max_pd agree with std::min/
/// std::max bitwise.
struct Avx2AttrLanes {
  __m256d min_sum[kHalves] = {_mm256_setzero_pd(), _mm256_setzero_pd()};
  __m256d max_sum[kHalves] = {_mm256_setzero_pd(), _mm256_setzero_pd()};

  void Min(double q, const double* row) {
    const __m256d qv = _mm256_set1_pd(q);
    for (int h = 0; h < kHalves; ++h)
      min_sum[h] = _mm256_add_pd(
          min_sum[h], _mm256_min_pd(qv, _mm256_loadu_pd(row + h * kVec)));
  }
  void MinMax(double q, const double* row) {
    const __m256d qv = _mm256_set1_pd(q);
    for (int h = 0; h < kHalves; ++h) {
      const __m256d v = _mm256_loadu_pd(row + h * kVec);
      max_sum[h] = _mm256_add_pd(max_sum[h], _mm256_max_pd(qv, v));
      min_sum[h] = _mm256_add_pd(min_sum[h], _mm256_min_pd(qv, v));
    }
  }
};

/// `num / den` with a zero denominator blended to 1.0. A Jaccard union is
/// zero only when its intersection is, so `num` is +0.0 there and the
/// quotient is the +0.0 the golden merge leaves for a skipped term.
inline __m256d JaccardTerm(__m256d num, __m256d den) {
  const __m256d zero = _mm256_cmp_pd(den, _mm256_setzero_pd(), _CMP_EQ_OQ);
  return _mm256_div_pd(num,
                       _mm256_blendv_pd(den, _mm256_set1_pd(1.0), zero));
}

alignas(32) constexpr double kAbsentRow[kScoreBlockWidth] = {};

void ScoreBlockAvx2(const BlockKernelArgs& a, double out[kScoreBlockWidth]) {
  Avx2AttrLanes lanes;
  WalkAttributes(a, kAbsentRow, lanes);
  alignas(32) double shared[kScoreBlockWidth] = {};
  for (int l = 0; l < kScoreBlockWidth; ++l)
    shared[l] = SharedAttributes(a, l);

  for (int h = 0; h < kHalves; ++h) {
    const __m256d r1 = MinMaxRatioVec(_mm256_set1_pd(a.q_degree),
                                      _mm256_loadu_pd(a.degree + h * kVec));
    const __m256d r2 =
        MinMaxRatioVec(_mm256_set1_pd(a.q_weighted_degree),
                       _mm256_loadu_pd(a.weighted_degree + h * kVec));
    const __m256d ncs = CosineVec(a.q_ncs, a.q_ncs_len, a.q_ncs_norm, a.ncs,
                                  a.ncs_stride, a.ncs_norm, h);
    const __m256d degree_sim = _mm256_add_pd(_mm256_add_pd(r1, r2), ncs);
    const __m256d hop = CosineVec(a.q_hop, a.q_hop_len, a.q_hop_norm, a.hop,
                                  a.hop_stride, a.hop_norm, h);
    const __m256d whop = CosineVec(a.q_whop, a.q_whop_len, a.q_whop_norm,
                                   a.whop, a.whop_stride, a.whop_norm, h);
    const __m256d distance_sim = _mm256_add_pd(hop, whop);

    // s^a: set Jaccard + weighted Jaccard. Adding a skipped (+0.0) term to
    // the other, non-negative one leaves it as the scalar path has it.
    const __m256d shared_v = _mm256_load_pd(shared + h * kVec);
    const __m256d set_union = _mm256_sub_pd(
        _mm256_add_pd(_mm256_set1_pd(a.q_attr_count),
                      _mm256_loadu_pd(a.attr_count + h * kVec)),
        shared_v);
    const __m256d weight_union =
        a.attrs_exact
            ? _mm256_sub_pd(
                  _mm256_add_pd(_mm256_set1_pd(a.q_attr_total),
                                _mm256_loadu_pd(a.attr_total + h * kVec)),
                  lanes.min_sum[h])
            : lanes.max_sum[h];
    const __m256d attr =
        _mm256_add_pd(JaccardTerm(shared_v, set_union),
                      JaccardTerm(lanes.min_sum[h], weight_union));

    const __m256d score = _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(a.c1), degree_sim),
                      _mm256_mul_pd(_mm256_set1_pd(a.c2), distance_sim)),
        _mm256_mul_pd(_mm256_set1_pd(a.c3), attr));
    _mm256_storeu_pd(out + h * kVec, score);
  }
}

}  // namespace

BlockKernelFn Avx2BlockKernel() { return &ScoreBlockAvx2; }

}  // namespace dehealth::internal

#else  // !__AVX2__

namespace dehealth::internal {
BlockKernelFn Avx2BlockKernel() { return nullptr; }
}  // namespace dehealth::internal

#endif
