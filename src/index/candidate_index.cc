#include "index/candidate_index.h"

#include <utility>

#include "io/byte_codec.h"

namespace dehealth {

namespace {

/// The IDF table a side's attributes are scaled by, or null when IDF is off.
const IdfTable* IdfOrNull(const CandidateIndexData& data) {
  return data.idf_weight_attributes ? &data.idf : nullptr;
}

}  // namespace

uint64_t FingerprintForIndex(const UdaGraph& side) {
  const int n = side.num_users();
  uint64_t h = Fnv1aValue(kFnv1aBasis, n);
  for (NodeId u = 0; u < n; ++u) {
    h = Fnv1aValue(h, side.graph.Degree(u));
    h = Fnv1aValue(h, side.graph.WeightedDegree(u));
    const auto i = static_cast<size_t>(u);
    h = Fnv1aValue(h, static_cast<int>(side.post_features[i].size()));
    h = Fnv1aValue(h, static_cast<int>(side.attributes[i].size()));
    for (const auto& [id, weight] : side.attributes[i]) {
      h = Fnv1aValue(h, id);
      h = Fnv1aValue(h, weight);
    }
  }
  return h;
}

StatusOr<IndexSlice> ComputeIndexSlice(const UdaGraph& auxiliary,
                                       int shard_index, int shard_count) {
  if (shard_count < 1 || shard_index < 0 || shard_index >= shard_count)
    return Status::InvalidArgument(
        "index slice: shard_index must be in [0, shard_count)");
  IndexSlice slice;
  slice.shard_index = shard_index;
  slice.shard_count = shard_count;
  slice.universe_size = auxiliary.num_users();
  slice.range = ComputeShardRanges(slice.universe_size, shard_count)
      [static_cast<size_t>(shard_index)];
  slice.universe_fingerprint = FingerprintForIndex(auxiliary);
  return slice;
}

CandidateIndex::CandidateIndex(CandidateIndexData data, SimdMode simd)
    : data_(std::move(data)), simd_mode_(simd) {}

IndexSlice CandidateIndex::slice() const {
  IndexSlice slice;
  slice.shard_index = static_cast<int>(data_.shard_index);
  slice.shard_count = static_cast<int>(data_.shard_count);
  slice.range.begin = static_cast<int>(data_.shard_begin);
  // FromData checked begin + users <= total, so the sum fits in uint32.
  slice.range.end = static_cast<int>(
      data_.shard_begin + static_cast<uint32_t>(data_.users.size()));
  slice.universe_size = static_cast<int>(data_.shard_total);
  slice.universe_fingerprint = data_.auxiliary_fingerprint;
  return slice;
}

SimilarityConfig CandidateIndex::similarity_config() const {
  SimilarityConfig config;
  config.c1 = data_.c1;
  config.c2 = data_.c2;
  config.c3 = data_.c3;
  config.num_landmarks = data_.num_landmarks;
  config.idf_weight_attributes = data_.idf_weight_attributes;
  config.simd = simd_mode_;
  return config;
}

StatusOr<CandidateIndex> CandidateIndex::Build(
    const UdaGraph& auxiliary, const SimilarityConfig& config,
    const IndexSlice& slice) {
  if (slice.universe_size != auxiliary.num_users() || slice.range.begin < 0 ||
      slice.range.begin > slice.range.end ||
      slice.range.end > slice.universe_size)
    return Status::InvalidArgument(
        "CandidateIndex::Build: slice is not part of this auxiliary side");
  CandidateIndexData data;
  data.c1 = config.c1;
  data.c2 = config.c2;
  data.c3 = config.c3;
  data.num_landmarks = config.num_landmarks;
  data.idf_weight_attributes = config.idf_weight_attributes;
  data.auxiliary_fingerprint = slice.universe_fingerprint;
  data.shard_index = static_cast<uint32_t>(slice.shard_index);
  data.shard_count = static_cast<uint32_t>(slice.shard_count);
  data.shard_begin = static_cast<uint32_t>(slice.range.begin);
  data.shard_total = static_cast<uint32_t>(slice.universe_size);
  // The universe's IDF table, never the slice's: slice-local document
  // frequencies would change attribute weights and break bitwise identity
  // with the whole index.
  if (data.idf_weight_attributes) data.idf = ComputeIdfTable(auxiliary);
  data.users = ComputeUserFeatures(auxiliary, data.num_landmarks,
                                   config.num_threads, IdfOrNull(data),
                                   slice.range.begin, slice.range.end);
  return FromData(std::move(data), config.num_threads, config.simd);
}

StatusOr<CandidateIndex> CandidateIndex::FromData(CandidateIndexData data,
                                                  int num_threads,
                                                  SimdMode simd) {
  // The score kernel's attribute walk reproduces the golden merge only for
  // strictly ascending in-range ids and non-negative, finite, non-(-0.0)
  // weights (DESIGN.md "Score kernel"); the query side is scaled by the
  // IDF table, so it is held to the same rule.
  for (const UserFeatures& f : data.users) {
    DEHEALTH_RETURN_IF_ERROR(
        CheckWalkableAttributes(f.attributes, "CandidateIndex"));
    if (f.degree < 0.0)
      return Status::InvalidArgument("CandidateIndex: negative degree");
  }
  DEHEALTH_RETURN_IF_ERROR(
      CheckWalkableAttributes(data.idf.weights, "CandidateIndex idf table"));
  if (!IsWalkableWeight(data.idf.default_weight))
    return Status::InvalidArgument(
        "CandidateIndex: idf default weight negative, NaN, infinite or -0.0");
  if (data.shard_count == 0 || data.shard_index >= data.shard_count)
    return Status::InvalidArgument("CandidateIndex: bad shard identity");
  if (static_cast<uint64_t>(data.shard_begin) + data.users.size() >
      data.shard_total)
    return Status::InvalidArgument(
        "CandidateIndex: shard range exceeds universe size");
  CandidateIndex index(std::move(data), simd);
  index.store_ = FeatureStore::Build(index.data_.users, num_threads);
  return index;
}

std::vector<UserFeatures> CandidateIndex::ComputeQueryFeatures(
    const UdaGraph& anonymized, int num_threads) const {
  return ComputeUserFeatures(anonymized, data_.num_landmarks, num_threads,
                             IdfOrNull(data_), 0, anonymized.num_users());
}

double CandidateIndex::ExactScore(const UserFeatures& query, NodeId v) const {
  return CombinedStructuralScore(similarity_config(), query,
                                 data_.users[static_cast<size_t>(v)]);
}

void CandidateIndex::ExactRowTo(const UserFeatures& query, double* out) const {
  store_.ScoreRow(similarity_config(), store_.MakeQuery(query), out);
}

}  // namespace dehealth
