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
/// hardware threads).
StatusOr<CandidateIndex> DecodeIndexSnapshot(const std::string& bytes,
                                             const std::string& path = "",
                                             int num_threads = 0);

/// Writes `index` to `path` atomically (`<path>.tmp` + fsync + rename, see
/// WriteStringToFileAtomic): a crash mid-save can never leave a truncated
/// snapshot that only the checksum would catch at the next load.
Status SaveIndexSnapshot(const CandidateIndex& index,
                         const std::string& path);

/// Reads and decodes the snapshot at `path`.
StatusOr<CandidateIndex> LoadIndexSnapshot(const std::string& path,
                                           int num_threads = 0);

/// The load-or-rebuild entry point the pipeline uses: when `path` is empty,
/// always builds from `auxiliary`. Otherwise tries to load `path` and
/// reuses the snapshot only when its score-shaping config fields AND its
/// auxiliary fingerprint match AND it is an unsharded (shard 0 of 1)
/// index — a shard slice shares the universe fingerprint but covers only
/// part of it; on any mismatch, missing file, or decode error it rebuilds
/// from `auxiliary` and overwrites the snapshot (a failing save is
/// surfaced — the caller asked for persistence). A file that exists but
/// does not load is first quarantined to `<path>.quarantined`.
StatusOr<CandidateIndex> LoadOrBuildIndex(const std::string& path,
                                          const UdaGraph& auxiliary,
                                          const SimilarityConfig& config);

}  // namespace dehealth

#endif  // DEHEALTH_INDEX_SNAPSHOT_H_
