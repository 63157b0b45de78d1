#ifndef DEHEALTH_INDEX_CANDIDATE_INDEX_H_
#define DEHEALTH_INDEX_CANDIDATE_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/feature_store.h"
#include "core/similarity.h"
#include "core/uda_graph.h"
#include "index/partition.h"

namespace dehealth {

/// Everything a candidate-index snapshot persists: the score-shaping config
/// fields, a fingerprint of the auxiliary side the index was built from,
/// the per-auxiliary-user feature store (landmark vectors included, so a
/// load skips the BFS/Dijkstra precomputation), and the IDF table the query
/// side must reuse verbatim (libm's log may differ across machines; the
/// stored doubles keep query scaling bitwise-stable).
struct CandidateIndexData {
  double c1 = 0.05;
  double c2 = 0.05;
  double c3 = 0.9;
  int num_landmarks = 50;
  bool idf_weight_attributes = false;
  /// Fingerprint of the FULL auxiliary universe this index (whole or
  /// slice) was built against — never the slice, so shards of the same
  /// universe agree on it and a router can fail closed on mismatched
  /// backends.
  uint64_t auxiliary_fingerprint = 0;
  /// Shard identity (DHIX v2). An unsharded index is shard 0 of 1 covering
  /// [0, users.size()). A shard holds the universe's contiguous id range
  /// [shard_begin, shard_begin + users.size()); `users` is indexed by
  /// LOCAL id (global id - shard_begin). shard_total is the universe size.
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;
  uint32_t shard_begin = 0;
  uint32_t shard_total = 0;
  std::vector<UserFeatures> users;
  /// The auxiliary side's IDF table; empty weights (and default 1.0) when
  /// IDF is off.
  IdfTable idf;
};

/// Fingerprint of the auxiliary side used to detect stale snapshots:
/// FNV-1a over user count and per-user degree, weighted degree, post count
/// and the raw (unscaled) attribute list.
uint64_t FingerprintForIndex(const UdaGraph& side);

/// The part of an auxiliary universe one index covers: shard
/// `shard_index` of `shard_count`, the users in `range` (global ids,
/// ComputeShardRanges). The whole index is shard 0 of 1.
/// `universe_size` and `universe_fingerprint` describe the whole
/// universe, so every slice of one universe agrees on them.
struct IndexSlice {
  int shard_index = 0;
  int shard_count = 1;
  ShardRange range;
  int universe_size = 0;
  uint64_t universe_fingerprint = 0;
  bool operator==(const IndexSlice&) const = default;
};

/// Shard `shard_index` of `shard_count` of `auxiliary`: the one
/// FingerprintForIndex walk a build or load of it makes. InvalidArgument
/// unless 0 <= shard_index < shard_count.
StatusOr<IndexSlice> ComputeIndexSlice(const UdaGraph& auxiliary,
                                       int shard_index, int shard_count);

/// A persistent auxiliary-side score index over one slice of the
/// auxiliary universe (the whole index is shard 0 of 1): the slice's users'
/// similarity features (ComputeUserFeatures, the builder
/// StructuralSimilarity uses), packed into a FeatureStore for the batched
/// score kernel and persisted as a DHIX snapshot so a warm start skips the
/// landmark precomputation. It answers exact per-anonymized-user scores
/// WITHOUT forming the dense |Δ1|×|Δ2| similarity matrix: a query's row is
/// one FeatureStore scan, bitwise equal to the slice's segment of the
/// dense row (see DESIGN.md "Candidate index" and "Sharding").
class CandidateIndex {
 public:
  /// Builds `slice` of the index over `auxiliary`. The fingerprint, the
  /// IDF table and the landmarks cover the whole universe; the per-user
  /// features and the feature store cover only the slice's users, under
  /// local ids (global id - range.begin). The per-pair kernel never looks
  /// outside the pair, so a slice scores every pair bitwise as the whole
  /// index does. `config.num_threads` drives the precomputation and
  /// `config.simd` is the tier the index scores with; every other field
  /// shapes the scores and is persisted. O(ħ·(V+E log V) + Σ|A(v)|).
  static StatusOr<CandidateIndex> Build(const UdaGraph& auxiliary,
                                        const SimilarityConfig& config,
                                        const IndexSlice& slice);

  /// Wraps deserialized snapshot data, rebuilding the derived feature
  /// store across `num_threads` threads (0 = all hardware threads). The
  /// index scores with the SIMD tier `simd`, which is never persisted:
  /// every tier scores the same features bitwise-identically.
  /// InvalidArgument when the data is internally inconsistent or holds
  /// attributes the score kernel cannot reproduce (CheckWalkableAttributes,
  /// on every user and on the IDF table).
  static StatusOr<CandidateIndex> FromData(CandidateIndexData data,
                                           int num_threads = 0,
                                           SimdMode simd = SimdMode::kAuto);

  int num_auxiliary() const { return static_cast<int>(data_.users.size()); }
  const CandidateIndexData& data() const { return data_; }

  /// The slice this index covers, as its data records it.
  IndexSlice slice() const;

  /// The score-shaping fields as a SimilarityConfig (num_threads = 0,
  /// simd = the tier FromData was given).
  SimilarityConfig similarity_config() const;

  /// Query-side features: ComputeUserFeatures on the anonymized graph with
  /// the index's stored IDF table — exactly what StructuralSimilarity
  /// precomputes for side 0.
  std::vector<UserFeatures> ComputeQueryFeatures(const UdaGraph& anonymized,
                                                 int num_threads = 0) const;

  /// Exact s_uv of a query against auxiliary user v (bitwise equal to the
  /// dense StructuralSimilarity::Combined).
  double ExactScore(const UserFeatures& query, NodeId v) const;

  /// Exact scores of a query against every auxiliary user, in id order,
  /// into out[0..num_auxiliary()): one batched FeatureStore row scan,
  /// bitwise equal to per-pair ExactScore calls.
  void ExactRowTo(const UserFeatures& query, double* out) const;

 private:
  CandidateIndex(CandidateIndexData data, SimdMode simd);

  CandidateIndexData data_;
  SimdMode simd_mode_;
  /// Blocked SoA mirror of data_.users for batched exact scoring (rebuilt
  /// by FromData; never persisted).
  FeatureStore store_;
};

}  // namespace dehealth

#endif  // DEHEALTH_INDEX_CANDIDATE_INDEX_H_
