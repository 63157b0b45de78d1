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
    const UserProfile& profile = side.profiles[static_cast<size_t>(u)];
    h = Fnv1aValue(h, profile.num_posts());
    h = Fnv1aValue(h, static_cast<int>(profile.attributes().size()));
    for (const auto& [id, weight] : profile.attributes()) {
      h = Fnv1aValue(h, id);
      h = Fnv1aValue(h, weight);
    }
  }
  return h;
}

CandidateIndex::CandidateIndex(CandidateIndexData data)
    : data_(std::move(data)) {}

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
    const UdaGraph& auxiliary, const SimilarityConfig& config) {
  CandidateIndexData data;
  data.c1 = config.c1;
  data.c2 = config.c2;
  data.c3 = config.c3;
  data.num_landmarks = config.num_landmarks;
  data.idf_weight_attributes = config.idf_weight_attributes;
  data.auxiliary_fingerprint = FingerprintForIndex(auxiliary);
  if (data.idf_weight_attributes) data.idf = ComputeIdfTable(auxiliary);
  data.users = ComputeUserFeatures(auxiliary, data.num_landmarks,
                                   config.num_threads, IdfOrNull(data));
  data.shard_total = static_cast<uint32_t>(data.users.size());
  StatusOr<CandidateIndex> index =
      FromData(std::move(data), config.num_threads);
  if (index.ok()) index->set_simd_mode(config.simd);
  return index;
}

StatusOr<CandidateIndex> CandidateIndex::FromData(CandidateIndexData data,
                                                  int num_threads) {
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
  // Hand-built unsharded data may leave shard_total at its zero default;
  // an unsharded index's universe is its own user list.
  if (data.shard_count == 1 && data.shard_begin == 0 && data.shard_total == 0)
    data.shard_total = static_cast<uint32_t>(data.users.size());
  if (data.shard_count == 0 || data.shard_index >= data.shard_count)
    return Status::InvalidArgument("CandidateIndex: bad shard identity");
  if (static_cast<uint64_t>(data.shard_begin) + data.users.size() >
      data.shard_total)
    return Status::InvalidArgument(
        "CandidateIndex: shard range exceeds universe size");
  CandidateIndex index(std::move(data));
  index.store_ = FeatureStore::Build(index.data_.users, num_threads);
  return index;
}

std::vector<UserFeatures> CandidateIndex::ComputeQueryFeatures(
    const UdaGraph& anonymized, int num_threads) const {
  return ComputeUserFeatures(anonymized, data_.num_landmarks, num_threads,
                             IdfOrNull(data_));
}

double CandidateIndex::ExactScore(const UserFeatures& query, NodeId v) const {
  return CombinedStructuralScore(similarity_config(), query,
                                 data_.users[static_cast<size_t>(v)]);
}

void CandidateIndex::ExactRowTo(const UserFeatures& query, double* out) const {
  store_.ScoreRow(similarity_config(), store_.MakeQuery(query), out);
}

}  // namespace dehealth
