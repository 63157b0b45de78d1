// The one byte codec every binary format shares (DHIX, DHJB/DHSH, DHSG,
// DHQP): published FNV-1a vectors, the bounds-checked reader, the frame
// check on every kind of damage, the quarantine helper, and the pinned
// bytes of each format so that a byte-order or field-width slip in any
// of them fails here.

#include "io/byte_codec.h"

#include <sys/socket.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "ingest/segment.h"
#include "io/file_util.h"
#include "io/socket.h"
#include "job/manifest.h"
#include "serve/protocol.h"
#include "testing/scoped_temp_dir.h"

namespace dehealth {
namespace {

uint64_t Fnv1a(const std::string& bytes) {
  return dehealth::Fnv1a(bytes.data(), bytes.size());
}

/// Asserts `status` is an error whose message names `path` and `(byte N)`.
void ExpectDecodeError(const Status& status, const std::string& path,
                       size_t byte, StatusCode code) {
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), code) << status.ToString();
  EXPECT_NE(status.message().find("'" + path + "'"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("(byte " + std::to_string(byte) + ")"),
            std::string::npos)
      << status.ToString();
}

TEST(ByteCodecTest, Fnv1aMatchesPublishedVectors) {
  // From the published FNV-1a 64 offset basis the codec reproduces the
  // published test vectors: the prime and the xor-then-multiply order are
  // the standard ones.
  constexpr uint64_t kPublishedBasis = 0xcbf29ce484222325ULL;
  EXPECT_EQ(dehealth::Fnv1a("", 0, kPublishedBasis), 0xcbf29ce484222325ULL);
  EXPECT_EQ(dehealth::Fnv1a("a", 1, kPublishedBasis), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(dehealth::Fnv1a("foobar", 6, kPublishedBasis),
            0x85944171f73967e8ULL);
  // The formats hash from their own basis, 14695981039346656037 / 10,
  // which every checksum and fingerprint on disk depends on.
  EXPECT_EQ(kFnv1aBasis, 14695981039346656037ULL / 10);
  EXPECT_EQ(Fnv1a(""), 1469598103934665603ULL);
  EXPECT_EQ(Fnv1a("a"), 4953267810257967366ULL);
  // Continuing a hash equals hashing the concatenation, and mixing a value
  // equals hashing its little-endian bytes.
  EXPECT_EQ(dehealth::Fnv1a("bar", 3, Fnv1a("foo")), Fnv1a("foobar"));
  EXPECT_EQ(Fnv1aValue(kFnv1aBasis, uint32_t{0x64636261}), Fnv1a("abcd"));
}

TEST(ByteCodecTest, PutWritesLittleEndian) {
  std::string out;
  Put(out, uint8_t{0xAB});
  Put(out, uint32_t{0x01020304});
  Put(out, int32_t{-2});
  Put(out, 1.0);
  EXPECT_EQ(out, std::string("\xAB\x04\x03\x02\x01\xFE\xFF\xFF\xFF"
                             "\x00\x00\x00\x00\x00\x00\xF0\x3F",
                             17));
}

TEST(ByteCodecTest, ReaderRoundTripsAndRejectsReadsPastTheEnd) {
  std::string bytes;
  Put(bytes, uint64_t{0x1122334455667788ULL});
  Put(bytes, -0.5);
  ByteReader reader(bytes, "test blob", "blob.bin");
  uint64_t u = 0;
  double d = 0.0;
  ASSERT_TRUE(reader.Read(&u).ok());
  ASSERT_TRUE(reader.Read(&d).ok());
  EXPECT_EQ(u, 0x1122334455667788ULL);
  EXPECT_EQ(d, -0.5);
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_TRUE(reader.ExpectEnd().ok());
  uint8_t more = 0;
  ExpectDecodeError(reader.Read(&more), "blob.bin", 16,
                    StatusCode::kInvalidArgument);

  // A read that straddles the end fails without consuming anything.
  const std::string prefix = bytes.substr(0, 12);
  ByteReader short_reader(prefix, "test blob", "blob.bin");
  ASSERT_TRUE(short_reader.Read(&u).ok());
  ExpectDecodeError(short_reader.Read(&d), "blob.bin", 8,
                    StatusCode::kInvalidArgument);
  std::string raw;
  ExpectDecodeError(short_reader.ReadBytes(5, &raw), "blob.bin", 8,
                    StatusCode::kInvalidArgument);
  ASSERT_TRUE(short_reader.ReadBytes(4, &raw).ok());
  EXPECT_EQ(raw, bytes.substr(8, 4));
}

TEST(ByteCodecTest, ReadCountRejectsCountsLargerThanTheRemainingBytes) {
  std::string bytes;
  Put(bytes, uint32_t{3});
  bytes.append(12, 'x');  // exactly three 4-byte elements
  uint32_t count = 0;
  ByteReader fits(bytes, "test blob", "blob.bin");
  ASSERT_TRUE(fits.ReadCount(4, &count).ok());
  EXPECT_EQ(count, 3u);
  ByteReader too_wide(bytes, "test blob", "blob.bin");
  ExpectDecodeError(too_wide.ReadCount(5, &count), "blob.bin", 4,
                    StatusCode::kInvalidArgument);

  // 2^30 elements announced with four bytes behind the count: refused
  // before anything is allocated.
  std::string absurd;
  Put(absurd, uint32_t{1} << 30);
  absurd.append(4, 'x');
  ByteReader reader(absurd, "test blob", "blob.bin");
  const Status st = reader.ReadCount(1, &count);
  ExpectDecodeError(st, "blob.bin", 4, StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("exceeds remaining"), std::string::npos);
}

TEST(ByteCodecTest, ExpectEndRejectsTrailingBytes) {
  std::string bytes;
  Put(bytes, uint32_t{7});
  bytes += "zz";
  ByteReader reader(bytes, "test blob", "blob.bin");
  uint32_t v = 0;
  ASSERT_TRUE(reader.Read(&v).ok());
  EXPECT_FALSE(reader.AtEnd());
  const Status st = reader.ExpectEnd();
  ExpectDecodeError(st, "blob.bin", 4, StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("2 trailing bytes"), std::string::npos);
}

TEST(ByteCodecTest, ErrorsOmitAnEmptyPath) {
  ByteReader reader("", "DHQP payload");
  uint8_t v = 0;
  EXPECT_EQ(reader.Read(&v).message(),
            "DHQP payload (byte 0): truncated payload");
}

constexpr char kTestMagic[4] = {'T', 'E', 'S', 'T'};
constexpr uint32_t kTestVersion = 3;
constexpr char kPath[] = "dir/frame.test";

std::string TestFrame(uint32_t version = kTestVersion) {
  std::string frame = BeginFrame(kTestMagic, version);
  Put(frame, uint64_t{0xfeedfacecafebeefULL});
  Put(frame, int32_t{-7});
  frame += "payload text";
  EndFrame(frame);
  return frame;
}

StatusOr<ByteReader> Open(const std::string& bytes) {
  return OpenFrame(bytes, kTestMagic, kTestVersion, "test frame", kPath);
}

TEST(ByteCodecTest, FrameRoundTrips) {
  const std::string frame = TestFrame();
  EXPECT_EQ(frame.substr(0, 4), "TEST");
  StatusOr<ByteReader> reader = Open(frame);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  uint64_t a = 0;
  int32_t b = 0;
  std::string text;
  ASSERT_TRUE(reader->Read(&a).ok());
  ASSERT_TRUE(reader->Read(&b).ok());
  ASSERT_TRUE(reader->ReadBytes(12, &text).ok());
  EXPECT_TRUE(reader->ExpectEnd().ok());  // the checksum is not payload
  EXPECT_EQ(a, 0xfeedfacecafebeefULL);
  EXPECT_EQ(b, -7);
  EXPECT_EQ(text, "payload text");
}

TEST(ByteCodecTest, FrameRejectsBadMagicAndShortFiles) {
  std::string bad_magic = TestFrame();
  bad_magic[2] = 'X';
  const Status st = Open(bad_magic).status();
  ExpectDecodeError(st, kPath, 0, StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("bad magic"), std::string::npos);
  ExpectDecodeError(Open("TEST").status(), kPath, 4,
                    StatusCode::kInvalidArgument);
}

TEST(ByteCodecTest, FrameAppliesTheOneVersionRule) {
  // Older versions, 0 included, are invalid files; a newer one needs a
  // newer build. The frames are otherwise valid.
  for (uint32_t version : {0u, kTestVersion - 1}) {
    SCOPED_TRACE(version);
    ExpectDecodeError(Open(TestFrame(version)).status(), kPath, 4,
                      StatusCode::kInvalidArgument);
  }
  ExpectDecodeError(Open(TestFrame(kTestVersion + 1)).status(), kPath, 4,
                    StatusCode::kUnimplemented);
}

TEST(ByteCodecTest, FrameRejectsEveryPrefix) {
  const std::string frame = TestFrame();
  for (size_t len = 0; len < frame.size(); ++len) {
    SCOPED_TRACE(len);
    // Shorter than header + footer: the size check, at the file's end.
    // Otherwise the last 8 bytes are read as a checksum and mismatch.
    const size_t byte = len < 16 ? len : len - 8;
    ExpectDecodeError(Open(frame.substr(0, len)).status(), kPath, byte,
                      StatusCode::kInvalidArgument);
  }
}

TEST(ByteCodecTest, FrameRejectsEveryOneBitFlip) {
  const std::string frame = TestFrame();
  for (size_t i = 0; i < frame.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("byte " + std::to_string(i) + " bit " +
                   std::to_string(bit));
      std::string flipped = frame;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      const Status st = Open(flipped).status();
      if (i < 4) {
        ExpectDecodeError(st, kPath, 0, StatusCode::kInvalidArgument);
      } else if (i < 8) {
        // Setting a version bit makes it newer, clearing one older.
        const bool set = ((kTestVersion >> (8 * (i - 4))) & (1u << bit)) == 0;
        ExpectDecodeError(st, kPath, 4,
                          set ? StatusCode::kUnimplemented
                              : StatusCode::kInvalidArgument);
      } else {
        ExpectDecodeError(st, kPath, frame.size() - 8,
                          StatusCode::kInvalidArgument);
      }
    }
  }
}

TEST(ByteCodecTest, QuarantineFileMovesTheBytesAside) {
  const ScopedTempDir tmp;
  const std::string file = tmp.File("victim.bin");
  ASSERT_TRUE(WriteStringToFile("old evidence", file).ok());
  ASSERT_TRUE(QuarantineFile(file, Status::InvalidArgument("first")));
  // A second quarantine of the same name replaces the older copy.
  ASSERT_TRUE(WriteStringToFile("corrupt bytes", file).ok());
  EXPECT_TRUE(QuarantineFile(file, Status::InvalidArgument("checksum")));
  EXPECT_FALSE(std::filesystem::exists(file));
  auto kept = ReadFileToString(file + ".quarantined");
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(*kept, "corrupt bytes");
  // Nothing to rename: the caller learns the file was not moved.
  EXPECT_FALSE(QuarantineFile(tmp.File("missing.bin"),
                              Status::InvalidArgument("gone")));
}

// FNV-1a of each format's encoding of fixed inputs. The literals were
// taken from the build before the formats shared this codec; DHIX is
// pinned by IndexSnapshotTest.FeatureBytesMatchPinnedValues. A change
// here strands files already on disk or splits mixed-version fleets.
TEST(ByteCodecTest, FormatBytesMatchPinnedValues) {
  JobManifest manifest;
  manifest.anonymized_fingerprint = 0x0123456789abcdefULL;
  manifest.auxiliary_fingerprint = 0xfedcba9876543210ULL;
  manifest.config_fingerprint = 0x0f1e2d3c4b5a6978ULL;
  manifest.num_users = 1000;
  manifest.shard_size = 64;
  EXPECT_EQ(Fnv1a(EncodeJobManifest(manifest)), 0xed9d31bbf616f1c9ULL);
  EXPECT_EQ(manifest.JobFingerprint(), 0xf1e77c9e7f0db256ULL);

  const uint64_t job = 0x00c0ffee12345678ULL;
  JobShard topk;
  topk.phase = JobShard::Phase::kTopK;
  topk.begin = 7;
  topk.end = 10;
  topk.candidates = {{3, 1, 4}, {}, {9, 2}};
  JobShard refined;
  refined.phase = JobShard::Phase::kRefined;
  refined.begin = 4;
  refined.end = 7;
  refined.predictions = {7, -1, 0};
  refined.rejected = {false, true, false};
  JobShard filter;
  filter.phase = JobShard::Phase::kFilter;
  filter.begin = 0;
  filter.end = 2;
  filter.candidates = {{2}, {5, 6}};
  filter.rejected = {true, false};
  EXPECT_EQ(Fnv1a(*EncodeJobShard(topk, job)), 0xe4a6840511f14420ULL);
  EXPECT_EQ(Fnv1a(*EncodeJobShard(refined, job)), 0x6def9c49ba6eafaaULL);
  EXPECT_EQ(Fnv1a(*EncodeJobShard(filter, job)), 0x9c3816dc9daac15fULL);

  ingest::DeltaSegment segment;
  segment.parent_fingerprint = 0x1111222233334444ULL;
  segment.result_fingerprint = 0x5555666677778888ULL;
  segment.shard_index = 1;
  segment.shard_count = 3;
  segment.base_posts = 40;
  segment.num_users_after = 12;
  segment.num_threads_after = 5;
  segment.posts = {{2, 1, "ask about a preventative\ndose"},
                   {11, 4, ""},
                   {0, 0, "caf\xc3\xa9 \"quoted\""}};
  EXPECT_EQ(Fnv1a(ingest::EncodeSegment(segment)), 0xd5acf557ad589ea1ULL);

  QueryRequest request;
  request.users = {5, 0, 12, 5};
  request.top_k = 7;
  request.timeout_ms = 250.5;
  EXPECT_EQ(Fnv1a(EncodeQueryPayload(request)), 0x8858c5bfd65a53bbULL);
  TopKAnswer topk_answer;
  topk_answer.candidates = {{3, 1, 4}, {}, {9}};
  EXPECT_EQ(Fnv1a(EncodeTopKPayload(topk_answer)), 0x36580961a0d72bfdULL);
  ScoredTopKAnswer scored;
  scored.candidates = {{ScoredUser{0.75, 3}, ScoredUser{-1.5, 1}}, {}};
  EXPECT_EQ(Fnv1a(EncodeScoredTopKPayload(scored)), 0x2d9456b1b76ee281ULL);
  RefinedAnswer refined_answer;
  refined_answer.predictions = {7, -1, 0};
  refined_answer.rejected = {false, true, false};
  EXPECT_EQ(Fnv1a(EncodeRefinedPayload(refined_answer)),
            0xaf334011c29ddf60ULL);
  FilteredAnswer filtered;
  filtered.candidates = {{2}, {5, 6}};
  filtered.rejected = {true, false};
  EXPECT_EQ(Fnv1a(EncodeFilteredPayload(filtered)), 0xde99263daaf25bf8ULL);
  ShardInfoAnswer info;
  info.shard_index = 2;
  info.shard_count = 5;
  info.shard_begin = 4000;
  info.shard_total = 10000;
  info.universe_fingerprint = 0xdeadbeefcafef00dULL;
  info.num_anonymized = 123;
  info.default_top_k = 20;
  EXPECT_EQ(Fnv1a(EncodeShardInfoPayload(info)), 0x25633e08b172430cULL);
  info.epoch_seq = 9;
  info.staged_segments = 4;
  info.engine = 2;
  EXPECT_EQ(Fnv1a(EncodeShardInfoPayload(info)), 0x3248cd44dcf8a573ULL);
  ServerStatsSnapshot stats;
  stats.requests_total = 100;
  stats.queries_total = 420;
  stats.batches_total = 17;
  stats.max_batch = 8;
  stats.overload_rejections = 3;
  stats.deadline_expirations = 2;
  stats.queue_depth = 5;
  stats.num_anonymized = 250;
  stats.default_top_k = 10;
  stats.p50_micros = 850.0;
  stats.p99_micros = 12000.0;
  stats.max_micros = 15001.5;
  EXPECT_EQ(Fnv1a(EncodeStatsPayload(stats)), 0xeabdf3bf1c623081ULL);
  EXPECT_EQ(Fnv1a(EncodeLoadSegmentPayload(
                "/var/lib/dehealth/delta-0004.dhsg")),
            0x08e7d7dd83096ac8ULL);
  EXPECT_EQ(Fnv1a(EncodeErrorPayload(
                Status::FailedPrecondition("slice refuses kRefined"))),
            0xaefed063591b5e10ULL);

  // The DHQP frame header as it goes on the wire.
  int fds[2];
  ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  const UniqueFd a(fds[0]);
  const UniqueFd b(fds[1]);
  ASSERT_TRUE(WriteFrame(a.get(), 7, std::string("pay\0load", 8)).ok());
  std::string frame(13 + 8, '\0');
  ASSERT_TRUE(ReadExact(b.get(), frame.data(), frame.size()).ok());
  EXPECT_EQ(Fnv1a(frame), 0xa34555c8bca1cbaaULL);
}

}  // namespace
}  // namespace dehealth
