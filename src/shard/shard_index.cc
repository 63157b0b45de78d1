#include "shard/shard_index.h"

#include "index/snapshot.h"
#include "io/byte_codec.h"
#include "obs/standard_metrics.h"
#include "obs/trace.h"

namespace dehealth {

namespace {

/// True when a decoded snapshot is exactly the shard we were asked for:
/// score-shaping config, universe fingerprint, and the full shard identity
/// must all match — a fingerprint match alone would accept a slice of the
/// right universe but the wrong range.
bool ShardSnapshotMatches(const CandidateIndexData& data,
                          const SimilarityConfig& config,
                          uint64_t universe_fingerprint, ShardRange range,
                          int shard_index, int shard_count,
                          int universe_size) {
  return data.c1 == config.c1 && data.c2 == config.c2 &&
         data.c3 == config.c3 &&
         data.num_landmarks == config.num_landmarks &&
         data.idf_weight_attributes == config.idf_weight_attributes &&
         data.auxiliary_fingerprint == universe_fingerprint &&
         data.shard_index == static_cast<uint32_t>(shard_index) &&
         data.shard_count == static_cast<uint32_t>(shard_count) &&
         data.shard_begin == static_cast<uint32_t>(range.begin) &&
         data.shard_total == static_cast<uint32_t>(universe_size) &&
         data.users.size() == static_cast<size_t>(range.size());
}

}  // namespace

CandidateIndexData SliceIndexData(const CandidateIndexData& full,
                                  ShardRange range, int shard_index,
                                  int shard_count) {
  CandidateIndexData slice;
  slice.c1 = full.c1;
  slice.c2 = full.c2;
  slice.c3 = full.c3;
  slice.num_landmarks = full.num_landmarks;
  slice.idf_weight_attributes = full.idf_weight_attributes;
  slice.auxiliary_fingerprint = full.auxiliary_fingerprint;
  slice.shard_index = static_cast<uint32_t>(shard_index);
  slice.shard_count = static_cast<uint32_t>(shard_count);
  slice.shard_begin = static_cast<uint32_t>(range.begin);
  slice.shard_total = static_cast<uint32_t>(full.users.size());
  slice.users.assign(full.users.begin() + range.begin,
                     full.users.begin() + range.end);
  // The GLOBAL idf table, verbatim: shard-local document frequencies would
  // change attribute weights and break bitwise identity with N = 1.
  slice.idf = full.idf;
  return slice;
}

StatusOr<CandidateIndex> LoadOrBuildShardIndex(
    const std::string& snapshot_path, const UdaGraph& auxiliary,
    const SimilarityConfig& config, int shard_index, int shard_count) {
  if (shard_count < 1 || shard_index < 0 || shard_index >= shard_count)
    return Status::InvalidArgument(
        "LoadOrBuildShardIndex: shard_index must be in [0, shard_count)");
  const int universe_size = auxiliary.num_users();
  const ShardRange range = ComputeShardRanges(
      universe_size, shard_count)[static_cast<size_t>(shard_index)];
  const std::string path =
      snapshot_path.empty()
          ? ""
          : ShardSnapshotPath(snapshot_path, shard_index, shard_count);
  if (!path.empty()) {
    StatusOr<CandidateIndex> loaded =
        LoadIndexSnapshot(path, config.num_threads);
    if (loaded.ok() &&
        ShardSnapshotMatches(loaded->data(), config,
                             FingerprintForIndex(auxiliary), range,
                             shard_index, shard_count, universe_size)) {
      loaded->set_simd_mode(config.simd);
      obs::GetIndexMetrics().snapshot_loads->Increment();
      return loaded;
    }
    // A missing file is the normal first run and a stale one is simply
    // rebuilt; anything else on disk is a damaged snapshot (bad
    // magic/checksum/bounds) — quarantine it so only THIS shard pays the
    // rebuild.
    if (!loaded.ok() && loaded.status().code() != StatusCode::kNotFound) {
      // Rename failure is non-fatal: the rebuild's save overwrites in place.
      QuarantineFile(path, loaded.status());
      obs::GetShardMetrics().snapshot_quarantines->Increment();
    }
  }
  obs::Span span("shard", "shard_index_rebuild");
  StatusOr<CandidateIndex> full = CandidateIndex::Build(auxiliary, config);
  if (!full.ok()) return full.status();
  StatusOr<CandidateIndex> shard = CandidateIndex::FromData(
      SliceIndexData(full->data(), range, shard_index, shard_count),
      config.num_threads);
  if (!shard.ok()) return shard.status();
  shard->set_simd_mode(config.simd);
  obs::GetIndexMetrics().snapshot_rebuilds->Increment();
  if (!path.empty()) DEHEALTH_RETURN_IF_ERROR(SaveIndexSnapshot(*shard, path));
  return shard;
}

}  // namespace dehealth
