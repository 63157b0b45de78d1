#ifndef DEHEALTH_INGEST_SEGMENT_H_
#define DEHEALTH_INGEST_SEGMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "datagen/corpus.h"

namespace dehealth {
namespace ingest {

/// DHSG — a delta DHIX segment: the append-only unit of streaming
/// ingestion. A segment carries the posts appended to a logical forum
/// since a known parent state, pinned at both ends by FNV fingerprints of
/// the auxiliary UDA graph (FingerprintForIndex): `parent_fingerprint` is
/// the state the segment applies to, `result_fingerprint` the state it
/// produces. Segments form chains (s[i+1].parent == s[i].result) that an
/// LSM-style compaction merges K-at-a-time; a compacted chain applies
/// bitwise-identically to the uncompacted one, and either is
/// bitwise-identical to a from-scratch build on the same logical forum
/// (the golden test in tests/ingest/delta_test.cc).
///
/// On-disk layout: the file frame of io/byte_codec.h, magic "DHSG"
/// version 1, whose little-endian payload is:
///   u64 parent_fingerprint | u64 result_fingerprint |
///   u32 shard_index | u32 shard_count | u64 base_posts |
///   i32 num_users_after | i32 num_threads_after |
///   u32 num_posts | per post: i32 user_id | i32 thread_id |
///                             u32 text_len | text bytes
struct DeltaSegment {
  /// FingerprintForIndex of the auxiliary UDA graph this applies to.
  uint64_t parent_fingerprint = 0;
  /// FingerprintForIndex after applying — validated post-apply, so a
  /// segment cut from a *different* logical forum that happens to share a
  /// parent fingerprint still fails closed.
  uint64_t result_fingerprint = 0;
  /// Which backend slice this segment was cut for. (0, 1) is the
  /// universal segment every backend accepts (epoch rebuilds consume the
  /// full auxiliary universe even in slice mode — see ingest::EpochHandler);
  /// a segment stamped for shard (i, n) is refused by any other slice.
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;
  /// Posts in the parent state — context for operators (`info`) and a
  /// cheap pre-fingerprint sanity check when applying.
  uint64_t base_posts = 0;
  /// The universe after applying (never smaller than the parent's).
  int32_t num_users_after = 0;
  int32_t num_threads_after = 0;
  /// The appended posts, in ingestion order — the order AddPost folds
  /// them, which is what makes incremental == from-scratch bitwise.
  std::vector<Post> posts;
};

/// Serializes a segment to the DHSG byte format.
std::string EncodeSegment(const DeltaSegment& segment);

/// Parses DHSG bytes. `path` is error-message context only. NotFound never
/// happens here (that is LoadSegmentFile's job); InvalidArgument for bad
/// magic/truncation/checksum/bounds, Unimplemented for a future version.
StatusOr<DeltaSegment> DecodeSegment(const std::string& bytes,
                                     const std::string& path = "");

/// Writes `segment` to `path` atomically (tmp + fsync + rename). Fault
/// sites: `segment.save` (the write itself) and `segment.write.data`
/// (bit-flips the encoded bytes before they hit disk — what
/// WriteSegmentVerified's read-back is for).
Status SaveSegmentFile(const DeltaSegment& segment, const std::string& path);

/// Reads and decodes the segment at `path`. Fault sites: `segment.load`
/// (the read) and `segment.load.data` (corruption of the bytes read).
StatusOr<DeltaSegment> LoadSegmentFile(const std::string& path);

/// True iff the file at `path` exists and begins with the DHSG magic.
/// Gate quarantines on this: a failed decode of a magic-bearing file is
/// corrupt segment evidence worth renaming aside, while a file that was
/// never a segment (a typo'd path naming a dataset, snapshot, or log)
/// must be left untouched.
bool FileHasSegmentMagic(const std::string& path);

/// Crash-and-corruption-safe producer write: saves, reads the file back,
/// and decodes it. If the read-back fails (a `segment.write.data` bit flip,
/// a lying disk), the corrupt file is quarantined to `<path>.quarantined`,
/// `dehealth_ingest_quarantines_total` is bumped, and the segment is
/// re-encoded and rewritten — up to `max_attempts` times before giving up
/// with the last error (DataLoss-grade: the storage is eating writes).
Status WriteSegmentVerified(const DeltaSegment& segment,
                            const std::string& path, int max_attempts = 3);

/// LSM-style compaction: merges an ordered chain of K segments into one
/// whose application is bitwise-equivalent (first parent, last result,
/// concatenated posts in order). Fails closed (FailedPrecondition) when
/// the chain is broken — a fingerprint mismatch between adjacent segments,
/// mixed shard identities, or a shrinking universe. Fault site:
/// `segment.compact`.
StatusOr<DeltaSegment> CompactSegments(
    const std::vector<DeltaSegment>& chain);

}  // namespace ingest
}  // namespace dehealth

#endif  // DEHEALTH_INGEST_SEGMENT_H_
