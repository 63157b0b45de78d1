#include "index/candidate_index.h"

#include <algorithm>
#include <cmath>

#include "graph/landmarks.h"

namespace dehealth {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void FnvMix(uint64_t& h, const void* bytes, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(bytes);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

template <typename T>
void FnvMixValue(uint64_t& h, T value) {
  FnvMix(h, &value, sizeof(value));
}

UserFeatureView ViewOf(const IndexedUserFeatures& f) {
  UserFeatureView view;
  view.degree = f.degree;
  view.weighted_degree = f.weighted_degree;
  view.ncs = &f.ncs;
  view.hop = &f.hop;
  view.weighted_hop = &f.weighted_hop;
  view.attributes = &f.attributes;
  return view;
}

}  // namespace

uint64_t FingerprintForIndex(const UdaGraph& side) {
  uint64_t h = kFnvOffset;
  const int n = side.num_users();
  FnvMixValue(h, n);
  for (NodeId u = 0; u < n; ++u) {
    FnvMixValue(h, side.graph.Degree(u));
    FnvMixValue(h, side.graph.WeightedDegree(u));
    const UserProfile& profile = side.profiles[static_cast<size_t>(u)];
    FnvMixValue(h, profile.num_posts());
    FnvMixValue(h, static_cast<int>(profile.attributes().size()));
    for (const auto& [id, weight] : profile.attributes()) {
      FnvMixValue(h, id);
      FnvMixValue(h, weight);
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
  config.num_threads = 0;
  config.simd = simd_mode_;
  return config;
}

double CandidateIndex::IdfWeight(int attribute_id) const {
  if (!data_.idf_weight_attributes) return 1.0;
  auto it = idf_lookup_.find(attribute_id);
  return it == idf_lookup_.end() ? data_.default_idf : it->second;
}

namespace {

/// The per-side feature precomputation of StructuralSimilarity's
/// constructor, reproduced value-for-value: landmark vectors, NCS vectors,
/// and idf-scaled attribute lists.
template <typename IdfFn>
std::vector<IndexedUserFeatures> ComputeSideFeatures(const UdaGraph& side,
                                                     int num_landmarks,
                                                     int num_threads,
                                                     const IdfFn& idf) {
  const int n = side.num_users();
  const LandmarkIndex landmarks(side.graph, num_landmarks, num_threads);
  std::vector<IndexedUserFeatures> features(static_cast<size_t>(n));
  for (NodeId u = 0; u < n; ++u) {
    IndexedUserFeatures& f = features[static_cast<size_t>(u)];
    f.degree = side.graph.Degree(u);
    f.weighted_degree = side.graph.WeightedDegree(u);
    f.ncs = side.graph.NcsVector(u);
    f.hop = landmarks.HopVector(u);
    f.weighted_hop = landmarks.WeightedVector(u);
    for (const auto& [id, weight] :
         side.profiles[static_cast<size_t>(u)].attributes())
      f.attributes.emplace_back(id, weight * idf(id));
  }
  return features;
}

}  // namespace

StatusOr<CandidateIndex> CandidateIndex::Build(
    const UdaGraph& auxiliary, const SimilarityConfig& config) {
  CandidateIndexData data;
  data.c1 = config.c1;
  data.c2 = config.c2;
  data.c3 = config.c3;
  data.num_landmarks = config.num_landmarks;
  data.idf_weight_attributes = config.idf_weight_attributes;
  data.auxiliary_fingerprint = FingerprintForIndex(auxiliary);

  // Document frequencies over the auxiliary side, scaled exactly as the
  // dense path scales them: idf = log((1+n2)/(1+df)).
  const double n2 = static_cast<double>(auxiliary.num_users());
  std::unordered_map<int, int> document_frequency;
  if (data.idf_weight_attributes) {
    for (const UserProfile& profile : auxiliary.profiles)
      for (const auto& [id, weight] : profile.attributes())
        ++document_frequency[id];
    data.idf_table.reserve(document_frequency.size());
    for (const auto& [id, df] : document_frequency)
      data.idf_table.emplace_back(
          id, std::log((1.0 + n2) / (1.0 + static_cast<double>(df))));
    std::sort(data.idf_table.begin(), data.idf_table.end());
    data.default_idf = std::log((1.0 + n2) / (1.0 + 0.0));
  }

  auto idf = [&](int id) {
    if (!data.idf_weight_attributes) return 1.0;
    auto it = document_frequency.find(id);
    const double df = it == document_frequency.end() ? 0.0 : it->second;
    return std::log((1.0 + n2) / (1.0 + df));
  };
  data.users = ComputeSideFeatures(auxiliary, data.num_landmarks,
                                   config.num_threads, idf);
  data.shard_total = static_cast<uint32_t>(data.users.size());
  StatusOr<CandidateIndex> index = FromData(std::move(data));
  if (index.ok()) index->set_simd_mode(config.simd);
  return index;
}

StatusOr<CandidateIndex> CandidateIndex::FromData(CandidateIndexData data) {
  for (const IndexedUserFeatures& f : data.users) {
    if (!std::is_sorted(f.attributes.begin(), f.attributes.end(),
                        [](const auto& a, const auto& b) {
                          return a.first < b.first;
                        }))
      return Status::InvalidArgument(
          "CandidateIndex: attribute list not sorted by id");
    if (f.degree < 0.0)
      return Status::InvalidArgument("CandidateIndex: negative degree");
  }
  if (!std::is_sorted(data.idf_table.begin(), data.idf_table.end()))
    return Status::InvalidArgument("CandidateIndex: idf table not sorted");
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
  std::vector<UserFeatureView> views;
  views.reserve(index.data_.users.size());
  for (const IndexedUserFeatures& f : index.data_.users)
    views.push_back(ViewOf(f));
  index.store_ = FeatureStore::Build(views);
  index.idf_lookup_.reserve(index.data_.idf_table.size());
  for (const auto& [id, w] : index.data_.idf_table)
    index.idf_lookup_.emplace(id, w);
  return index;
}

std::vector<IndexedUserFeatures> CandidateIndex::ComputeQueryFeatures(
    const UdaGraph& anonymized, int num_threads) const {
  return ComputeSideFeatures(anonymized, data_.num_landmarks, num_threads,
                             [this](int id) { return IdfWeight(id); });
}

double CandidateIndex::ExactScore(const IndexedUserFeatures& query,
                                  NodeId v) const {
  return CombinedStructuralScore(similarity_config(), ViewOf(query),
                                 ViewOf(data_.users[static_cast<size_t>(v)]));
}

void CandidateIndex::ExactRowTo(const IndexedUserFeatures& query,
                                double* out) const {
  const SimilarityConfig config = similarity_config();
  const ScoreQuery q = store_.MakeQuery(ViewOf(query));
  store_.ScoreRow(config, q, out);
}

}  // namespace dehealth
