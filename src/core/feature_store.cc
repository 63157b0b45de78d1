#include "core/feature_store.h"

#include <algorithm>
#include <cmath>

#include "common/math_utils.h"
#include "core/feature_store_kernels.h"
#include "obs/standard_metrics.h"

namespace dehealth {

namespace {

using internal::BlockKernelArgs;
using internal::BlockKernelFn;
using internal::kScoreBlockWidth;

static_assert(FeatureStore::kBlockWidth == kScoreBlockWidth,
              "store block width and kernel block width must agree");

/// Attribute weights in [0, 2^26] whose per-user totals stay <= 2^52 keep
/// every partial sum of the merge an exact integer < 2^53: summation is
/// then order-free, which is what licenses the union-via-totals shortcut
/// and the dense-lookup scan. Non-IDF weights (raw post counts) always
/// qualify; IDF-scaled weights (irrational logs) never do.
constexpr double kMaxExactWeight = 67108864.0;         // 2^26
constexpr double kMaxExactTotal = 4503599627370496.0;  // 2^52

bool WeightIsExactInteger(double w) {
  return w >= 0.0 && w <= kMaxExactWeight && std::floor(w) == w;
}

/// sqrt of the ascending-order sum of squares — the exact bits
/// CosineSimilarity's na/nb accumulation produces for this vector, taken
/// once instead of once per pair (sqrt is IEEE correctly rounded, so the
/// precomputed value divides identically).
double VectorNorm(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x * x;
  return sum == 0.0 ? 0.0 : std::sqrt(sum);
}

/// One lane's cosine term against lane-interleaved block data. The dot
/// product runs over min(query length, stride): entries past either length
/// are zero-padded, and adding x*0 products to a non-negative accumulator
/// never changes its bits, so truncating the loop is exact.
double CosineLane(const double* q, int q_len, double q_norm,
                  const double* data, int stride, double v_norm, int lane) {
  const int n = std::min(q_len, stride);
  double dot = 0.0;
  for (int i = 0; i < n; ++i)
    dot += q[i] * data[i * kScoreBlockWidth + lane];
  if (q_norm == 0.0 || v_norm == 0.0) return 0.0;
  return dot / (q_norm * v_norm);
}

}  // namespace

namespace internal {

void ScoreBlockScalar(const BlockKernelArgs& a, double out[kScoreBlockWidth]) {
  for (int l = 0; l < kScoreBlockWidth; ++l) {
    const double degree_sim =
        (MinMaxRatio(a.q_degree, a.degree[l]) +
         MinMaxRatio(a.q_weighted_degree, a.weighted_degree[l])) +
        CosineLane(a.q_ncs, a.q_ncs_len, a.q_ncs_norm, a.ncs, a.ncs_stride,
                   a.ncs_norm[l], l);
    const double distance_sim =
        CosineLane(a.q_hop, a.q_hop_len, a.q_hop_norm, a.hop, a.hop_stride,
                   a.hop_norm[l], l) +
        CosineLane(a.q_whop, a.q_whop_len, a.q_whop_norm, a.whop,
                   a.whop_stride, a.whop_norm[l], l);
    out[l] = (a.c1 * degree_sim + a.c2 * distance_sim) + a.c3 * a.attr_sim[l];
  }
}

}  // namespace internal

FeatureStore FeatureStore::Build(const std::vector<UserFeatureView>& users) {
  FeatureStore store;
  const int n = static_cast<int>(users.size());
  store.num_users_ = n;
  store.num_blocks_ = (n + kBlockWidth - 1) / kBlockWidth;
  const size_t padded = static_cast<size_t>(store.num_blocks_) * kBlockWidth;

  for (const UserFeatureView& u : users) {
    store.hop_stride_ =
        std::max(store.hop_stride_, static_cast<int>(u.hop->size()));
    store.whop_stride_ =
        std::max(store.whop_stride_, static_cast<int>(u.weighted_hop->size()));
  }

  store.degree_.assign(padded, 0.0);
  store.weighted_degree_.assign(padded, 0.0);
  store.hop_.assign(padded * static_cast<size_t>(store.hop_stride_), 0.0);
  store.whop_.assign(padded * static_cast<size_t>(store.whop_stride_), 0.0);
  store.hop_norm_.assign(padded, 0.0);
  store.whop_norm_.assign(padded, 0.0);
  store.ncs_norm_.assign(padded, 0.0);
  store.ncs_offset_.assign(static_cast<size_t>(store.num_blocks_), 0);
  store.ncs_stride_.assign(static_cast<size_t>(store.num_blocks_), 0);
  store.attr_offset_.assign(static_cast<size_t>(n) + 1, 0);
  store.attr_total_.assign(static_cast<size_t>(n), 0.0);

  size_t total_attrs = 0;
  for (const UserFeatureView& u : users) total_attrs += u.attributes->size();
  store.attr_id_.reserve(total_attrs);
  store.attr_weight_.reserve(total_attrs);

  // Per-block NCS strides first so the packed extent is known up front.
  size_t ncs_total = 0;
  for (int b = 0; b < store.num_blocks_; ++b) {
    int stride = 0;
    for (int l = 0; l < kBlockWidth; ++l) {
      const int v = b * kBlockWidth + l;
      if (v < n)
        stride = std::max(stride,
                          static_cast<int>(users[static_cast<size_t>(v)]
                                               .ncs->size()));
    }
    store.ncs_offset_[static_cast<size_t>(b)] = ncs_total;
    store.ncs_stride_[static_cast<size_t>(b)] = stride;
    ncs_total += static_cast<size_t>(stride) * kBlockWidth;
  }
  store.ncs_.assign(ncs_total, 0.0);

  for (int v = 0; v < n; ++v) {
    const UserFeatureView& u = users[static_cast<size_t>(v)];
    const int b = v / kBlockWidth;
    const int lane = v % kBlockWidth;
    store.degree_[static_cast<size_t>(v)] = u.degree;
    store.weighted_degree_[static_cast<size_t>(v)] = u.weighted_degree;

    double* hop_base = store.hop_.data() +
                       static_cast<size_t>(b) * kBlockWidth *
                           static_cast<size_t>(store.hop_stride_);
    for (size_t i = 0; i < u.hop->size(); ++i)
      hop_base[i * kScoreBlockWidth + static_cast<size_t>(lane)] = (*u.hop)[i];
    double* whop_base = store.whop_.data() +
                        static_cast<size_t>(b) * kBlockWidth *
                            static_cast<size_t>(store.whop_stride_);
    for (size_t i = 0; i < u.weighted_hop->size(); ++i)
      whop_base[i * kScoreBlockWidth + static_cast<size_t>(lane)] =
          (*u.weighted_hop)[i];
    double* ncs_base =
        store.ncs_.data() + store.ncs_offset_[static_cast<size_t>(b)];
    for (size_t i = 0; i < u.ncs->size(); ++i)
      ncs_base[i * kScoreBlockWidth + static_cast<size_t>(lane)] = (*u.ncs)[i];

    store.hop_norm_[static_cast<size_t>(v)] = VectorNorm(*u.hop);
    store.whop_norm_[static_cast<size_t>(v)] = VectorNorm(*u.weighted_hop);
    store.ncs_norm_[static_cast<size_t>(v)] = VectorNorm(*u.ncs);

    double total = 0.0;
    for (const auto& [id, weight] : *u.attributes) {
      store.attr_id_.push_back(id);
      store.attr_weight_.push_back(weight);
      store.max_attr_id_ = std::max(store.max_attr_id_, id);
      total += weight;
      // Negative ids can't index the dense query table; they also force
      // the merge path.
      if (id < 0 || !WeightIsExactInteger(weight)) store.attrs_exact_ = false;
    }
    if (total > kMaxExactTotal) store.attrs_exact_ = false;
    store.attr_total_[static_cast<size_t>(v)] = total;
    store.attr_offset_[static_cast<size_t>(v) + 1] = store.attr_id_.size();
  }
  return store;
}

ScoreQuery FeatureStore::MakeQuery(const UserFeatureView& query) const {
  ScoreQuery q;
  q.degree = query.degree;
  q.weighted_degree = query.weighted_degree;
  q.ncs = query.ncs;
  q.hop = query.hop;
  q.weighted_hop = query.weighted_hop;
  q.attributes = query.attributes;
  q.ncs_norm = VectorNorm(*query.ncs);
  q.hop_norm = VectorNorm(*query.hop);
  q.whop_norm = VectorNorm(*query.weighted_hop);

  q.attrs_exact = attrs_exact_;
  double total = 0.0;
  for (const auto& [id, weight] : *query.attributes) {
    total += weight;
    if (!WeightIsExactInteger(weight)) q.attrs_exact = false;
  }
  if (total > kMaxExactTotal) q.attrs_exact = false;
  q.attr_total = total;
  if (q.attrs_exact && max_attr_id_ >= 0) {
    q.attr_weight.assign(static_cast<size_t>(max_attr_id_) + 1, 0.0);
    q.attr_present.assign(static_cast<size_t>(max_attr_id_) + 1, 0);
    for (const auto& [id, weight] : *query.attributes) {
      if (id < 0 || id > max_attr_id_) continue;  // can't match any stored id
      q.attr_weight[static_cast<size_t>(id)] = weight;
      q.attr_present[static_cast<size_t>(id)] = 1;
    }
  }
  return q;
}

double FeatureStore::AttrSimilarity(const ScoreQuery& q, int v) const {
  const size_t begin = attr_offset_[static_cast<size_t>(v)];
  const size_t end = attr_offset_[static_cast<size_t>(v) + 1];
  const size_t b_len = end - begin;
  const auto& a = *q.attributes;
  if (a.empty() && b_len == 0) return 0.0;

  if (q.attrs_exact && !q.attr_present.empty()) {
    // Exact-integer fast path: every sum below is an exact integer, so the
    // merge's accumulation order is immaterial and the union follows from
    // the precomputed totals — bitwise equal to the branchy merge, at one
    // table lookup per candidate attribute. Matched mins still accumulate
    // in ascending-id order, exactly like the merge.
    // Branchless on purpose: the presence test is a coin flip on real
    // data, so a branch mispredicts constantly. Absent ids hold a +0.0
    // query weight, and min(+0.0, w) adds +0.0 to a non-negative
    // accumulator — bitwise neutral — while attr_present is the 0/1
    // intersection increment itself.
    size_t inter = 0;
    double weight_inter = 0.0;
    for (size_t k = begin; k < end; ++k) {
      const auto id = static_cast<size_t>(attr_id_[k]);
      inter += q.attr_present[id];
      weight_inter += std::min(q.attr_weight[id], attr_weight_[k]);
    }
    const double weight_union =
        (q.attr_total + attr_total_[static_cast<size_t>(v)]) - weight_inter;
    const size_t set_union = a.size() + b_len - inter;
    double sim = 0.0;
    if (set_union > 0)
      sim += static_cast<double>(inter) / static_cast<double>(set_union);
    if (weight_union > 0) sim += weight_inter / weight_union;
    return sim;
  }

  // General path (IDF-scaled or otherwise non-integral weights): the golden
  // merge of FlattenedAttributeSimilarity, operation for operation, over
  // the CSR arrays.
  size_t set_intersection = 0;
  double weight_intersection = 0.0, weight_union = 0.0;
  size_t i = 0, j = begin;
  while (i < a.size() && j < end) {
    if (a[i].first < attr_id_[j]) {
      weight_union += a[i].second;
      ++i;
    } else if (attr_id_[j] < a[i].first) {
      weight_union += attr_weight_[j];
      ++j;
    } else {
      ++set_intersection;
      weight_intersection += std::min(a[i].second, attr_weight_[j]);
      weight_union += std::max(a[i].second, attr_weight_[j]);
      ++i;
      ++j;
    }
  }
  for (; i < a.size(); ++i) weight_union += a[i].second;
  for (; j < end; ++j) weight_union += attr_weight_[j];

  const size_t set_union = a.size() + b_len - set_intersection;
  double sim = 0.0;
  if (set_union > 0)
    sim += static_cast<double>(set_intersection) /
           static_cast<double>(set_union);
  if (weight_union > 0) sim += weight_intersection / weight_union;
  return sim;
}

namespace {

/// Picks the widest available kernel at or below the resolved tier (a
/// translation unit built without its -m flag contributes nullptr).
/// Returns the tier that will actually run.
BlockKernelFn SelectKernel(SimdMode resolved, SimdMode* actual) {
  if (resolved == SimdMode::kAvx2) {
    if (BlockKernelFn fn = internal::Avx2BlockKernel()) {
      *actual = SimdMode::kAvx2;
      return fn;
    }
    resolved = SimdMode::kSse2;
  }
  if (resolved == SimdMode::kSse2) {
    if (BlockKernelFn fn = internal::Sse2BlockKernel()) {
      *actual = SimdMode::kSse2;
      return fn;
    }
  }
  *actual = SimdMode::kScalar;
  return &internal::ScoreBlockScalar;
}

}  // namespace

void FeatureStore::ScoreRow(const SimilarityConfig& config,
                            const ScoreQuery& q, double* out) const {
  if (num_users_ == 0) return;
  SimdMode actual = SimdMode::kScalar;
  const BlockKernelFn kernel =
      SelectKernel(ResolveSimdMode(config.simd), &actual);
  obs::CoreMetrics& metrics = obs::GetCoreMetrics();
  metrics.simd_kernel->Set(static_cast<int64_t>(actual));

  BlockKernelArgs args;
  args.q_degree = q.degree;
  args.q_weighted_degree = q.weighted_degree;
  args.q_ncs = q.ncs->data();
  args.q_ncs_len = static_cast<int>(q.ncs->size());
  args.q_ncs_norm = q.ncs_norm;
  args.q_hop = q.hop->data();
  args.q_hop_len = static_cast<int>(q.hop->size());
  args.q_hop_norm = q.hop_norm;
  args.q_whop = q.weighted_hop->data();
  args.q_whop_len = static_cast<int>(q.weighted_hop->size());
  args.q_whop_norm = q.whop_norm;
  args.hop_stride = hop_stride_;
  args.whop_stride = whop_stride_;
  args.c1 = config.c1;
  args.c2 = config.c2;
  args.c3 = config.c3;

  double attr_tmp[kScoreBlockWidth];
  double score_tmp[kScoreBlockWidth];
  for (int b = 0; b < num_blocks_; ++b) {
    const int base = b * kBlockWidth;
    const int width = std::min(kBlockWidth, num_users_ - base);
    for (int l = 0; l < kBlockWidth; ++l)
      attr_tmp[l] = l < width ? AttrSimilarity(q, base + l) : 0.0;

    args.degree = degree_.data() + base;
    args.weighted_degree = weighted_degree_.data() + base;
    args.hop = hop_.data() + static_cast<size_t>(b) * kBlockWidth *
                                 static_cast<size_t>(hop_stride_);
    args.whop = whop_.data() + static_cast<size_t>(b) * kBlockWidth *
                                   static_cast<size_t>(whop_stride_);
    args.ncs = ncs_.data() + ncs_offset_[static_cast<size_t>(b)];
    args.ncs_stride = ncs_stride_[static_cast<size_t>(b)];
    args.hop_norm = hop_norm_.data() + base;
    args.whop_norm = whop_norm_.data() + base;
    args.ncs_norm = ncs_norm_.data() + base;
    args.attr_sim = attr_tmp;

    kernel(args, score_tmp);
    for (int l = 0; l < width; ++l) out[base + l] = score_tmp[l];
    metrics.score_block_size->Record(static_cast<double>(width));
  }
}

}  // namespace dehealth
