#ifndef DEHEALTH_INDEX_SNAPSHOT_H_
#define DEHEALTH_INDEX_SNAPSHOT_H_

#include <string>

#include "common/status.h"
#include "index/candidate_index.h"

namespace dehealth {

/// Binary snapshot of a CandidateIndex (the persistent part of the index;
/// the feature store is derived and rebuilt on load).
///
/// Layout: the io/byte_codec.h file frame with magic "DHIX", version 2.
///
/// The loader returns Status instead of crashing on every malformed input:
/// NotFound (missing file), InvalidArgument (bad magic, truncation,
/// checksum mismatch, an older format version), Unimplemented (snapshot
/// written by a future format version).

/// Serializes the index's persistent data to the snapshot byte format.
std::string EncodeIndexSnapshot(const CandidateIndex& index);
/// The same for bare data, which the encoder does not validate: a decode
/// of the bytes runs CandidateIndex::FromData's checks.
std::string EncodeIndexSnapshot(const CandidateIndexData& data);

/// Parses snapshot bytes back into an index. `path` is context only — it
/// names the originating file in error messages (every decode error also
/// carries the byte offset where parsing failed); pass "" for in-memory
/// buffers. `num_threads` packs the index's feature store (0 = all
/// hardware threads) and `simd` is the tier it scores with
/// (CandidateIndex::FromData).
StatusOr<CandidateIndex> DecodeIndexSnapshot(const std::string& bytes,
                                             const std::string& path = "",
                                             int num_threads = 0,
                                             SimdMode simd = SimdMode::kAuto);

/// Writes `index` to `path` atomically (`<path>.tmp` + fsync + rename, see
/// WriteStringToFileAtomic): a crash mid-save can never leave a truncated
/// snapshot that only the checksum would catch at the next load.
Status SaveIndexSnapshot(const CandidateIndex& index,
                         const std::string& path);

/// Reads and decodes the snapshot at `path`.
StatusOr<CandidateIndex> LoadIndexSnapshot(const std::string& path,
                                           int num_threads = 0,
                                           SimdMode simd = SimdMode::kAuto);

/// The one way an index is loaded or built: shard `shard_index` of
/// `shard_count` of the index over `auxiliary` (the whole index is shard 0
/// of 1; InvalidArgument outside [0, shard_count)). With an empty `path`
/// it always builds. Otherwise it loads the slice's snapshot file,
/// ShardSnapshotPath(path, shard_index, shard_count), and reuses it only
/// when its score-shaping config, universe fingerprint, shard identity and
/// user count all match the slice asked for. Those fields precede the
/// per-user records, so a stale file is refused from its header (after
/// the frame checksum) without its records decoded or its feature store
/// packed. On any mismatch, missing file or decode error it builds the
/// slice and saves it there. A file that exists but does not load is
/// first quarantined to `<file>.quarantined`. A failing save never costs the built index: it
/// is returned, and the save's Status goes to `*save_status` (when
/// non-null) so the caller can report that nothing was persisted.
/// `config.num_threads` and `config.simd` are the index's runtime knobs.
StatusOr<CandidateIndex> LoadOrBuildIndex(const std::string& path,
                                          const UdaGraph& auxiliary,
                                          const SimilarityConfig& config,
                                          int shard_index = 0,
                                          int shard_count = 1,
                                          Status* save_status = nullptr);

}  // namespace dehealth

#endif  // DEHEALTH_INDEX_SNAPSHOT_H_
