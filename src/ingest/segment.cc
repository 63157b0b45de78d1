#include "ingest/segment.h"

#include <cstdio>
#include <cstring>

#include "common/fault_injection.h"
#include "io/byte_codec.h"
#include "io/file_util.h"
#include "obs/standard_metrics.h"
#include "obs/trace.h"

namespace dehealth {
namespace ingest {

namespace {

constexpr char kMagic[4] = {'D', 'H', 'S', 'G'};
constexpr uint32_t kVersion = 1;
/// A post longer than this is binary garbage, not forum prose — same
/// ceiling as the JSONL reader's line cap.
constexpr uint32_t kMaxTextBytes = 16u << 20;

}  // namespace

std::string EncodeSegment(const DeltaSegment& segment) {
  std::string out = BeginFrame(kMagic, kVersion);
  Put(out, segment.parent_fingerprint);
  Put(out, segment.result_fingerprint);
  Put(out, segment.shard_index);
  Put(out, segment.shard_count);
  Put(out, segment.base_posts);
  Put(out, segment.num_users_after);
  Put(out, segment.num_threads_after);
  Put(out, static_cast<uint32_t>(segment.posts.size()));
  for (const Post& post : segment.posts) {
    Put(out, static_cast<int32_t>(post.user_id));
    Put(out, static_cast<int32_t>(post.thread_id));
    Put(out, static_cast<uint32_t>(post.text.size()));
    out += post.text;
  }
  EndFrame(out);
  return out;
}

StatusOr<DeltaSegment> DecodeSegment(const std::string& bytes,
                                     const std::string& path) {
  StatusOr<ByteReader> frame =
      OpenFrame(bytes, kMagic, kVersion, "delta segment", path);
  if (!frame.ok()) return frame.status();
  ByteReader& reader = *frame;
  DeltaSegment segment;
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&segment.parent_fingerprint));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&segment.result_fingerprint));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&segment.shard_index));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&segment.shard_count));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&segment.base_posts));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&segment.num_users_after));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&segment.num_threads_after));
  if (segment.shard_count == 0)
    return reader.Fail("shard_count must be >= 1");
  if (segment.shard_index >= segment.shard_count)
    return reader.Fail("shard_index out of range");
  if (segment.num_users_after < 0 || segment.num_threads_after < 0)
    return reader.Fail("negative universe bounds");
  uint32_t num_posts = 0;
  // i32 user + i32 thread + u32 text length is the smallest post.
  DEHEALTH_RETURN_IF_ERROR(reader.ReadCount(12, &num_posts));
  segment.posts.reserve(num_posts);
  for (uint32_t i = 0; i < num_posts; ++i) {
    int32_t user = 0;
    int32_t thread = 0;
    uint32_t text_len = 0;
    DEHEALTH_RETURN_IF_ERROR(reader.Read(&user));
    DEHEALTH_RETURN_IF_ERROR(reader.Read(&thread));
    DEHEALTH_RETURN_IF_ERROR(reader.Read(&text_len));
    if (user < 0 || user >= segment.num_users_after)
      return reader.Fail("post user_id " + std::to_string(user) +
                         " outside [0, " +
                         std::to_string(segment.num_users_after) + ")");
    if (thread < 0 || thread >= segment.num_threads_after)
      return reader.Fail("post thread_id " + std::to_string(thread) +
                         " outside [0, " +
                         std::to_string(segment.num_threads_after) + ")");
    if (text_len > kMaxTextBytes)
      return reader.Fail("post text of " + std::to_string(text_len) +
                         " bytes exceeds the " +
                         std::to_string(kMaxTextBytes) + "-byte limit");
    Post post;
    post.user_id = user;
    post.thread_id = thread;
    DEHEALTH_RETURN_IF_ERROR(reader.ReadBytes(text_len, &post.text));
    segment.posts.push_back(std::move(post));
  }
  DEHEALTH_RETURN_IF_ERROR(reader.ExpectEnd());
  return segment;
}

Status SaveSegmentFile(const DeltaSegment& segment,
                       const std::string& path) {
  obs::Span span("ingest", "save_segment");
  span.SetArg("posts", static_cast<int64_t>(segment.posts.size()));
  DEHEALTH_RETURN_IF_ERROR(InjectFaultPoint("segment.save"));
  std::string bytes = EncodeSegment(segment);
  // Simulated silent write corruption: the bytes that reach the disk are
  // not the bytes we encoded. Only WriteSegmentVerified's read-back can
  // catch this class of fault.
  InjectDataFault("segment.write.data", &bytes);
  return WriteStringToFileAtomic(bytes, path);
}

bool FileHasSegmentMagic(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  char head[sizeof(kMagic)];
  const size_t read = std::fread(head, 1, sizeof(head), file);
  std::fclose(file);
  return read == sizeof(head) &&
         std::memcmp(head, kMagic, sizeof(kMagic)) == 0;
}

StatusOr<DeltaSegment> LoadSegmentFile(const std::string& path) {
  obs::Span span("ingest", "load_segment");
  DEHEALTH_RETURN_IF_ERROR(InjectFaultPoint("segment.load"));
  StatusOr<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  // Simulated on-disk corruption of the segment; the checksum (or, for a
  // very unlucky flip, the bounds checks) must turn it into a Status.
  InjectDataFault("segment.load.data", &*bytes);
  return DecodeSegment(*bytes, path);
}

Status WriteSegmentVerified(const DeltaSegment& segment,
                            const std::string& path, int max_attempts) {
  if (max_attempts < 1)
    return Status::InvalidArgument(
        "WriteSegmentVerified: max_attempts must be >= 1");
  Status last;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    DEHEALTH_RETURN_IF_ERROR(SaveSegmentFile(segment, path));
    StatusOr<DeltaSegment> back = LoadSegmentFile(path);
    if (back.ok() && back->result_fingerprint == segment.result_fingerprint)
      return Status::OK();
    last = back.ok() ? Status::Internal(
                           "segment read back with a different result "
                           "fingerprint (storage corrupted a valid frame)")
                     : back.status();
    // Quarantine the corrupt artifact for post-mortems (never delete
    // evidence, never serve it) and recompute the write. If the rename
    // fails the corrupt file is still sitting at `path`; retrying would
    // overwrite the evidence, so give up instead.
    if (!QuarantineFile(path, last))
      return Status(StatusCode::kInternal,
                    "WriteSegmentVerified: " + path +
                        " failed read-back (" + std::string(last.message()) +
                        ") and could not be quarantined; the corrupt file "
                        "is left in place as evidence");
    obs::GetIngestMetrics().quarantines->Increment();
  }
  return Status(StatusCode::kInternal,
                "WriteSegmentVerified: " + std::to_string(max_attempts) +
                    " write attempts all failed read-back: " +
                    std::string(last.message()));
}

StatusOr<DeltaSegment> CompactSegments(
    const std::vector<DeltaSegment>& chain) {
  obs::Span span("ingest", "compact_segments");
  span.SetArg("segments", static_cast<int64_t>(chain.size()));
  DEHEALTH_RETURN_IF_ERROR(InjectFaultPoint("segment.compact"));
  if (chain.empty())
    return Status::InvalidArgument("CompactSegments: empty chain");
  DeltaSegment merged;
  merged.parent_fingerprint = chain.front().parent_fingerprint;
  merged.result_fingerprint = chain.back().result_fingerprint;
  merged.shard_index = chain.front().shard_index;
  merged.shard_count = chain.front().shard_count;
  merged.base_posts = chain.front().base_posts;
  merged.num_users_after = chain.back().num_users_after;
  merged.num_threads_after = chain.back().num_threads_after;
  size_t total_posts = 0;
  for (size_t i = 0; i < chain.size(); ++i) {
    const DeltaSegment& segment = chain[i];
    if (segment.shard_index != merged.shard_index ||
        segment.shard_count != merged.shard_count)
      return Status::FailedPrecondition(
          "CompactSegments: mixed shard identities at position " +
          std::to_string(i) + " (segments from different slices do not "
          "form one chain)");
    if (i > 0) {
      if (segment.parent_fingerprint != chain[i - 1].result_fingerprint)
        return Status::FailedPrecondition(
            "CompactSegments: broken chain at position " +
            std::to_string(i) + ": parent fingerprint does not match the "
            "previous segment's result");
      if (segment.num_users_after < chain[i - 1].num_users_after ||
          segment.num_threads_after < chain[i - 1].num_threads_after)
        return Status::FailedPrecondition(
            "CompactSegments: universe shrinks at position " +
            std::to_string(i));
    }
    total_posts += segment.posts.size();
  }
  merged.posts.reserve(total_posts);
  for (const DeltaSegment& segment : chain)
    merged.posts.insert(merged.posts.end(), segment.posts.begin(),
                        segment.posts.end());
  obs::GetIngestMetrics().compactions->Increment();
  return merged;
}

}  // namespace ingest
}  // namespace dehealth
