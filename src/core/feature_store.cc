#include "core/feature_store.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <string>

#include "common/math_utils.h"
#include "common/parallel.h"
#include "core/feature_store_kernels.h"
#include "obs/standard_metrics.h"
#include "obs/trace.h"

namespace dehealth {

namespace {

using internal::BlockKernelArgs;
using internal::BlockKernelFn;
using internal::kAttrIds;
using internal::kAttrWords;
using internal::kScoreBlockWidth;

static_assert(FeatureStore::kBlockWidth == kScoreBlockWidth,
              "store block width and kernel block width must agree");

/// A block's union bitmap followed by one bitmap per lane.
constexpr size_t kAttrBitsPerBlock =
    static_cast<size_t>(1 + kScoreBlockWidth) * kAttrWords;

/// Integer attribute weights in [0, 2^26] keep every partial sum of the
/// merge an exact integer: a list holds at most kAttrIds of them, so sums
/// stay below 2^37, far inside the 2^53 where doubles hold every integer.
/// Summation is then order-free, which is what licenses the union-via-
/// totals shortcut and the `block & query` walk. Non-IDF weights (raw
/// post counts) always qualify; IDF-scaled weights (irrational logs) never
/// do.
constexpr double kMaxExactWeight = 67108864.0;  // 2^26
static_assert(static_cast<double>(kAttrIds) * kMaxExactWeight * 2 <
                  9007199254740992.0,  // 2^53
              "both sides' totals must add without rounding");

bool WeightIsExactInteger(double w) {
  // The range test comes first, so the truncating cast is always defined.
  return w >= 0.0 && w <= kMaxExactWeight &&
         static_cast<double>(static_cast<int64_t>(w)) == w;
}

/// Sets each id's bit in `bits` and returns Σ weights in ascending id order
/// (the merge's own order); clears *exact when the list leaves the
/// exact-integer regime.
double MarkAttributes(const std::vector<std::pair<int, double>>& attributes,
                      uint64_t* bits, bool* exact) {
  double total = 0.0;
  for (const auto& [id, weight] : attributes) {
    bits[id / 64] |= uint64_t{1} << (id % 64);
    total += weight;
    if (!WeightIsExactInteger(weight)) *exact = false;
  }
  return total;
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

/// The scalar tier's attribute accumulators, one per lane.
struct ScalarAttrLanes {
  double min_sum[kScoreBlockWidth] = {};
  double max_sum[kScoreBlockWidth] = {};

  void Min(double q, const double* row) {
    for (int l = 0; l < kScoreBlockWidth; ++l)
      min_sum[l] += std::min(q, row[l]);
  }
  void MinMax(double q, const double* row) {
    for (int l = 0; l < kScoreBlockWidth; ++l) {
      max_sum[l] += std::max(q, row[l]);
      min_sum[l] += std::min(q, row[l]);
    }
  }
};

/// All-+0.0 lane weights: the row of an id the block lacks.
constexpr double kAbsentRow[kScoreBlockWidth] = {};

}  // namespace

namespace internal {

void ScoreBlockScalar(const BlockKernelArgs& a, double out[kScoreBlockWidth]) {
  ScalarAttrLanes lanes;
  WalkAttributes(a, kAbsentRow, lanes);
  for (int l = 0; l < kScoreBlockWidth; ++l) {
    // s^a exactly as the golden merge finishes it: set Jaccard plus
    // weighted Jaccard, each term skipped on a zero denominator.
    const double shared = SharedAttributes(a, l);
    const double set_union = (a.q_attr_count + a.attr_count[l]) - shared;
    const double weight_union =
        a.attrs_exact ? (a.q_attr_total + a.attr_total[l]) - lanes.min_sum[l]
                      : lanes.max_sum[l];
    double attr_sim = 0.0;
    if (set_union > 0) attr_sim += shared / set_union;
    if (weight_union > 0) attr_sim += lanes.min_sum[l] / weight_union;

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
    out[l] = (a.c1 * degree_sim + a.c2 * distance_sim) + a.c3 * attr_sim;
  }
}

}  // namespace internal

bool IsWalkableWeight(double weight) {
  // `weight >= 0.0` is false for NaN; -0.0 compares equal to 0.0, so its
  // sign bit is read.
  return weight >= 0.0 && !std::isinf(weight) && !std::signbit(weight);
}

Status CheckWalkableAttributes(
    const std::vector<std::pair<int, double>>& attributes, const char* what) {
  int previous = -1;
  for (const auto& [id, weight] : attributes) {
    if (id < 0 || id >= kAttrIds)
      return Status::InvalidArgument(std::string(what) +
                                     ": attribute id out of range");
    if (id <= previous)
      return Status::InvalidArgument(
          std::string(what) + ": attribute ids not strictly ascending");
    if (!IsWalkableWeight(weight))
      return Status::InvalidArgument(
          std::string(what) +
          ": attribute weight negative, NaN, infinite or -0.0");
    previous = id;
  }
  return Status::OK();
}

FeatureStore FeatureStore::Build(const std::vector<UserFeatures>& users,
                                 int num_threads) {
  obs::Span span("core", "feature_store_build");
  FeatureStore store;
  const int n = static_cast<int>(users.size());
  store.num_users_ = n;
  store.num_blocks_ = (n + kBlockWidth - 1) / kBlockWidth;
  const auto num_blocks = static_cast<size_t>(store.num_blocks_);
  const size_t padded = num_blocks * kBlockWidth;

  for (const UserFeatures& u : users) {
    store.hop_stride_ =
        std::max(store.hop_stride_, static_cast<int>(u.hop.size()));
    store.whop_stride_ =
        std::max(store.whop_stride_, static_cast<int>(u.weighted_hop.size()));
  }

  store.degree_.assign(padded, 0.0);
  store.weighted_degree_.assign(padded, 0.0);
  store.hop_.assign(padded * static_cast<size_t>(store.hop_stride_), 0.0);
  store.whop_.assign(padded * static_cast<size_t>(store.whop_stride_), 0.0);
  store.hop_norm_.assign(padded, 0.0);
  store.whop_norm_.assign(padded, 0.0);
  store.ncs_norm_.assign(padded, 0.0);
  store.ncs_offset_.assign(num_blocks, 0);
  store.ncs_stride_.assign(num_blocks, 0);
  store.attr_bits_.assign(num_blocks * kAttrBitsPerBlock, 0);
  store.attr_rows_.resize(num_blocks);
  store.attr_count_.assign(padded, 0.0);
  store.attr_total_.assign(padded, 0.0);

  // Per-block NCS strides first so the packed extent is known up front.
  size_t ncs_total = 0;
  for (int b = 0; b < store.num_blocks_; ++b) {
    int stride = 0;
    for (int l = 0; l < kBlockWidth; ++l) {
      const int v = b * kBlockWidth + l;
      if (v < n)
        stride = std::max(stride,
                          static_cast<int>(users[static_cast<size_t>(v)]
                                               .ncs.size()));
    }
    store.ncs_offset_[static_cast<size_t>(b)] = ncs_total;
    store.ncs_stride_[static_cast<size_t>(b)] = stride;
    ncs_total += static_cast<size_t>(stride) * kBlockWidth;
  }
  store.ncs_.assign(ncs_total, 0.0);

  // Blocks pack in parallel, each writing only its own slots, so the store
  // is the same for any thread count: every lane's vectors, norms and
  // attribute bitmap, set size and total; then the union bitmap, and one
  // row of lane weights per union id in ascending id order (an id's row is
  // its rank among the union's set bits).
  std::vector<uint8_t> block_exact(num_blocks, 1);
  ParallelFor(
      0, store.num_blocks_,
      [&](int64_t b) {
        const auto block = static_cast<size_t>(b);
        uint64_t* block_bits = store.attr_bits_.data() +
                               block * kAttrBitsPerBlock;
        bool exact = true;
        for (int lane = 0; lane < kBlockWidth; ++lane) {
          const size_t v = block * kBlockWidth + static_cast<size_t>(lane);
          if (v >= static_cast<size_t>(n)) break;
          const UserFeatures& u = users[v];
          store.degree_[v] = u.degree;
          store.weighted_degree_[v] = u.weighted_degree;
          double* hop_base = store.hop_.data() +
                             block * kBlockWidth *
                                 static_cast<size_t>(store.hop_stride_);
          for (size_t i = 0; i < u.hop.size(); ++i)
            hop_base[i * kScoreBlockWidth + static_cast<size_t>(lane)] =
                u.hop[i];
          double* whop_base = store.whop_.data() +
                              block * kBlockWidth *
                                  static_cast<size_t>(store.whop_stride_);
          for (size_t i = 0; i < u.weighted_hop.size(); ++i)
            whop_base[i * kScoreBlockWidth + static_cast<size_t>(lane)] =
                u.weighted_hop[i];
          double* ncs_base = store.ncs_.data() + store.ncs_offset_[block];
          for (size_t i = 0; i < u.ncs.size(); ++i)
            ncs_base[i * kScoreBlockWidth + static_cast<size_t>(lane)] =
                u.ncs[i];

          store.hop_norm_[v] = VectorNorm(u.hop);
          store.whop_norm_[v] = VectorNorm(u.weighted_hop);
          store.ncs_norm_[v] = VectorNorm(u.ncs);

          assert(CheckWalkableAttributes(u.attributes, "FeatureStore").ok());
          store.attr_count_[v] = static_cast<double>(u.attributes.size());
          store.attr_total_[v] = MarkAttributes(
              u.attributes,
              block_bits + static_cast<size_t>(1 + lane) * kAttrWords,
              &exact);
        }
        block_exact[block] = exact ? 1 : 0;

        uint32_t row_of[kAttrWords * 64] = {};
        uint32_t rows = 0;
        for (int w = 0; w < kAttrWords; ++w) {
          for (int lane = 1; lane <= kBlockWidth; ++lane)
            block_bits[w] |= block_bits[lane * kAttrWords + w];
          for (uint64_t bits = block_bits[w]; bits != 0; bits &= bits - 1)
            row_of[w * 64 + std::countr_zero(bits)] = rows++;
        }
        std::vector<double>& block_rows = store.attr_rows_[block];
        block_rows.assign(size_t{rows} * kBlockWidth, 0.0);
        for (int lane = 0; lane < kBlockWidth; ++lane) {
          const size_t v = block * kBlockWidth + static_cast<size_t>(lane);
          if (v >= static_cast<size_t>(n)) break;
          for (const auto& [id, weight] : users[v].attributes)
            block_rows[row_of[id] * size_t{kBlockWidth} +
                       static_cast<size_t>(lane)] = weight;
        }
      },
      num_threads);

  size_t union_rows = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    union_rows += store.attr_rows_[b].size() / kBlockWidth;
    if (block_exact[b] == 0) store.attrs_exact_ = false;
  }
  span.SetArg("users", n);
  span.SetArg("union_rows", static_cast<int64_t>(union_rows));
  return store;
}

ScoreQuery FeatureStore::MakeQuery(const UserFeatures& query) const {
  assert(CheckWalkableAttributes(query.attributes, "ScoreQuery").ok());
  ScoreQuery q;
  q.user = &query;
  q.ncs_norm = VectorNorm(query.ncs);
  q.hop_norm = VectorNorm(query.hop);
  q.whop_norm = VectorNorm(query.weighted_hop);

  q.attrs_exact = attrs_exact_;
  q.attr_count = static_cast<double>(query.attributes.size());
  q.attr_bits.assign(kAttrWords, 0);
  q.attr_total =
      MarkAttributes(query.attributes, q.attr_bits.data(), &q.attrs_exact);
  q.attr_weight.assign(kAttrIds, 0.0);
  for (const auto& [id, weight] : query.attributes)
    q.attr_weight[static_cast<size_t>(id)] = weight;
  return q;
}

namespace {

/// The kernel of the resolved tier: AVX2 when requested and compiled in
/// (a translation unit built without -mavx2 contributes nullptr), else the
/// scalar golden kernel. Reports the tier that will actually run.
BlockKernelFn SelectKernel(SimdMode resolved, SimdMode* actual) {
  if (resolved == SimdMode::kAvx2) {
    if (BlockKernelFn fn = internal::Avx2BlockKernel()) {
      *actual = SimdMode::kAvx2;
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

  const UserFeatures& user = *q.user;
  BlockKernelArgs args;
  args.q_degree = user.degree;
  args.q_weighted_degree = user.weighted_degree;
  args.q_ncs = user.ncs.data();
  args.q_ncs_len = static_cast<int>(user.ncs.size());
  args.q_ncs_norm = q.ncs_norm;
  args.q_hop = user.hop.data();
  args.q_hop_len = static_cast<int>(user.hop.size());
  args.q_hop_norm = q.hop_norm;
  args.q_whop = user.weighted_hop.data();
  args.q_whop_len = static_cast<int>(user.weighted_hop.size());
  args.q_whop_norm = q.whop_norm;
  args.q_attr_weight = q.attr_weight.data();
  args.q_attr_bits = q.attr_bits.data();
  args.q_attr_count = q.attr_count;
  args.q_attr_total = q.attr_total;
  args.attrs_exact = q.attrs_exact;
  args.hop_stride = hop_stride_;
  args.whop_stride = whop_stride_;
  args.c1 = config.c1;
  args.c2 = config.c2;
  args.c3 = config.c3;

  double score_tmp[kScoreBlockWidth];
  for (int b = 0; b < num_blocks_; ++b) {
    const int base = b * kBlockWidth;
    const int width = std::min(kBlockWidth, num_users_ - base);

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
    args.attr_union =
        attr_bits_.data() + static_cast<size_t>(b) * kAttrBitsPerBlock;
    args.attr_lane_bits = args.attr_union + kAttrWords;
    args.attr_rows = attr_rows_[static_cast<size_t>(b)].data();
    args.attr_count = attr_count_.data() + base;
    args.attr_total = attr_total_.data() + base;

    kernel(args, score_tmp);
    for (int l = 0; l < width; ++l) out[base + l] = score_tmp[l];
    metrics.score_block_size->Record(static_cast<double>(width));
  }
}

}  // namespace dehealth
