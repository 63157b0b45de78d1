#ifndef DEHEALTH_INDEX_CANDIDATE_INDEX_H_
#define DEHEALTH_INDEX_CANDIDATE_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/feature_store.h"
#include "core/similarity.h"
#include "core/uda_graph.h"

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
  /// Fingerprint of the FULL auxiliary universe this index (or the index
  /// this shard was sliced from) was built against — never the slice, so
  /// shards of the same universe agree on it and a router can fail closed
  /// on mismatched backends.
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

/// A persistent auxiliary-side score index: the auxiliary users' similarity
/// features (ComputeUserFeatures, the builder StructuralSimilarity uses),
/// packed into a FeatureStore for the batched score kernel and persisted as
/// a DHIX snapshot so a warm start skips the landmark precomputation. It
/// answers exact per-anonymized-user scores WITHOUT forming the dense
/// |Δ1|×|Δ2| similarity matrix: a query's row is one FeatureStore scan,
/// bitwise equal to the dense row (see DESIGN.md "Candidate index").
class CandidateIndex {
 public:
  /// Builds the index from the auxiliary side. `config.num_threads` drives
  /// the landmark precomputation; every other field shapes the scores and
  /// is persisted. O(ħ·(V+E log V) + Σ|A(v)|).
  static StatusOr<CandidateIndex> Build(const UdaGraph& auxiliary,
                                        const SimilarityConfig& config);

  /// Wraps deserialized snapshot data, rebuilding the derived feature
  /// store across `num_threads` threads (0 = all hardware threads).
  /// InvalidArgument when the data is internally inconsistent or holds
  /// attributes the score kernel cannot reproduce (CheckWalkableAttributes,
  /// on every user and on the IDF table).
  static StatusOr<CandidateIndex> FromData(CandidateIndexData data,
                                           int num_threads = 0);

  int num_auxiliary() const { return static_cast<int>(data_.users.size()); }
  const CandidateIndexData& data() const { return data_; }

  /// The score-shaping fields as a SimilarityConfig (num_threads = 0,
  /// simd = the runtime simd_mode()).
  SimilarityConfig similarity_config() const;

  /// Runtime SIMD tier for exact scoring (NOT persisted — a snapshot holds
  /// features, and every tier scores them bitwise-identically). Defaults
  /// to kAuto; Build() copies the config's choice, FromData callers (the
  /// snapshot path) set it afterwards.
  SimdMode simd_mode() const { return simd_mode_; }
  void set_simd_mode(SimdMode mode) { simd_mode_ = mode; }

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
  explicit CandidateIndex(CandidateIndexData data);

  CandidateIndexData data_;
  SimdMode simd_mode_ = SimdMode::kAuto;
  /// Blocked SoA mirror of data_.users for batched exact scoring (rebuilt
  /// by FromData; never persisted).
  FeatureStore store_;
};

}  // namespace dehealth

#endif  // DEHEALTH_INDEX_CANDIDATE_INDEX_H_
