#include "serve/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/socket.h"

namespace dehealth {
namespace {

/// A connected AF_UNIX pair (WriteAll uses send(), which needs a socket).
class ServeProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    int fds[2];
    ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    a_.reset(fds[0]);
    b_.reset(fds[1]);
  }

  UniqueFd a_;
  UniqueFd b_;
};

TEST_F(ServeProtocolTest, FrameRoundTrips) {
  const std::string payload = "hello\0world";
  ASSERT_TRUE(WriteFrame(a_.get(), 7, payload).ok());
  uint8_t type = 0;
  std::string received;
  ASSERT_TRUE(ReadFrame(b_.get(), &type, &received).ok());
  EXPECT_EQ(type, 7);
  EXPECT_EQ(received, payload);
}

TEST_F(ServeProtocolTest, EmptyPayloadFrameRoundTrips) {
  ASSERT_TRUE(WriteFrame(a_.get(), 4, std::string()).ok());
  uint8_t type = 0;
  std::string received = "stale";
  ASSERT_TRUE(ReadFrame(b_.get(), &type, &received).ok());
  EXPECT_EQ(type, 4);
  EXPECT_TRUE(received.empty());
}

TEST_F(ServeProtocolTest, BadMagicIsRejected) {
  const std::string garbage = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(WriteAll(a_.get(), garbage.data(), garbage.size()).ok());
  uint8_t type = 0;
  std::string payload;
  Status st = ReadFrame(b_.get(), &type, &payload);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("magic"), std::string::npos);
}

TEST_F(ServeProtocolTest, FutureVersionIsUnimplemented) {
  std::string header = "DHQP";
  const uint32_t version = kDhqpVersion + 1;
  for (int i = 0; i < 4; ++i)
    header.push_back(static_cast<char>((version >> (8 * i)) & 0xff));
  header.push_back(1);                              // type
  header.append(4, '\0');                           // length 0
  ASSERT_TRUE(WriteAll(a_.get(), header.data(), header.size()).ok());
  uint8_t type = 0;
  std::string payload;
  Status st = ReadFrame(b_.get(), &type, &payload);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnimplemented);
}

TEST_F(ServeProtocolTest, VersionZeroIsInvalid) {
  // A zeroed version is a damaged or foreign stream, not an old peer.
  std::string header = "DHQP";
  header.append(4, '\0');  // version 0
  header.push_back(1);     // type
  header.append(4, '\0');  // length 0
  ASSERT_TRUE(WriteAll(a_.get(), header.data(), header.size()).ok());
  uint8_t type = 0;
  std::string payload;
  Status st = ReadFrame(b_.get(), &type, &payload);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("(byte 4)"), std::string::npos)
      << st.ToString();
}

TEST_F(ServeProtocolTest, OversizedAnnouncedPayloadIsRejected) {
  std::string header = "DHQP";
  for (int i = 0; i < 4; ++i)
    header.push_back(static_cast<char>((kDhqpVersion >> (8 * i)) & 0xff));
  header.push_back(1);
  const uint32_t huge = kDhqpMaxPayloadBytes + 1;
  for (int i = 0; i < 4; ++i)
    header.push_back(static_cast<char>((huge >> (8 * i)) & 0xff));
  ASSERT_TRUE(WriteAll(a_.get(), header.data(), header.size()).ok());
  uint8_t type = 0;
  std::string payload;
  Status st = ReadFrame(b_.get(), &type, &payload);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(ServeProtocolTest, CleanEofIsOutOfRange) {
  a_.reset();  // peer gone before any frame
  uint8_t type = 0;
  std::string payload;
  EXPECT_EQ(ReadFrame(b_.get(), &type, &payload).code(),
            StatusCode::kOutOfRange);
}

TEST(ServeProtocolPayloads, QueryRoundTrips) {
  QueryRequest request;
  request.type = RequestType::kTopK;
  request.users = {5, 0, 12, 5};
  request.top_k = 7;
  request.timeout_ms = 250.5;
  auto decoded = DecodeQueryPayload(RequestType::kTopK,
                                    EncodeQueryPayload(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->users, request.users);
  EXPECT_EQ(decoded->top_k, 7);
  EXPECT_DOUBLE_EQ(decoded->timeout_ms, 250.5);
  EXPECT_EQ(decoded->type, RequestType::kTopK);
}

TEST(ServeProtocolPayloads, TruncatedQueryCarriesByteOffset) {
  QueryRequest request;
  request.users = {1, 2, 3};
  std::string payload = EncodeQueryPayload(request);
  payload.resize(payload.size() - 2);
  auto decoded = DecodeQueryPayload(RequestType::kRefined, payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("byte "), std::string::npos);
}

TEST(ServeProtocolPayloads, TrailingBytesAreRejected) {
  QueryRequest request;
  request.users = {1};
  std::string payload = EncodeQueryPayload(request) + "x";
  auto decoded = DecodeQueryPayload(RequestType::kTopK, payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("trailing"), std::string::npos);
}

TEST(ServeProtocolPayloads, NegativeTimeoutIsRejected) {
  QueryRequest request;
  request.timeout_ms = -1.0;
  auto decoded =
      DecodeQueryPayload(RequestType::kTopK, EncodeQueryPayload(request));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServeProtocolPayloads, AbsurdElementCountFailsBeforeAllocating) {
  // u32 count = 0x40000000 users with only 4 bytes of payload behind it.
  std::string payload;
  payload.push_back(0);  // top_k i32 = 0
  payload.append(3, '\0');
  payload.append(8, '\0');  // timeout double = 0
  payload.push_back(0);
  payload.push_back(0);
  payload.push_back(0);
  payload.push_back(0x40);  // count
  payload.append(4, 'x');
  auto decoded = DecodeQueryPayload(RequestType::kTopK, payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("exceeds remaining"),
            std::string::npos);
}

TEST(ServeProtocolPayloads, TopKAnswerRoundTrips) {
  TopKAnswer answer;
  answer.candidates = {{3, 1, 4}, {}, {9}};
  auto decoded = DecodeTopKPayload(EncodeTopKPayload(answer));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->candidates, answer.candidates);
}

TEST(ServeProtocolPayloads, RefinedAnswerRoundTrips) {
  RefinedAnswer answer;
  answer.predictions = {7, -1, 0};
  answer.rejected = {false, true, false};
  auto decoded = DecodeRefinedPayload(EncodeRefinedPayload(answer));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->predictions, answer.predictions);
  EXPECT_EQ(decoded->rejected, answer.rejected);
}

TEST(ServeProtocolPayloads, FilteredAnswerRoundTrips) {
  FilteredAnswer answer;
  answer.candidates = {{2}, {5, 6}};
  answer.rejected = {true, false};
  auto decoded = DecodeFilteredPayload(EncodeFilteredPayload(answer));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->candidates, answer.candidates);
  EXPECT_EQ(decoded->rejected, answer.rejected);
}

TEST(ServeProtocolPayloads, ScoredTopKAnswerRoundTrips) {
  ScoredTopKAnswer answer;
  answer.candidates = {{ScoredUser{0.75, 3}, ScoredUser{0.25, 1}},
                       {},
                       {ScoredUser{-1.5, 9}}};
  auto decoded = DecodeScoredTopKPayload(EncodeScoredTopKPayload(answer));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->candidates.size(), answer.candidates.size());
  for (size_t u = 0; u < answer.candidates.size(); ++u) {
    ASSERT_EQ(decoded->candidates[u].size(), answer.candidates[u].size());
    for (size_t i = 0; i < answer.candidates[u].size(); ++i) {
      // Scores travel as raw IEEE-754 bits: bitwise equality, not approx.
      EXPECT_EQ(decoded->candidates[u][i].score,
                answer.candidates[u][i].score);
      EXPECT_EQ(decoded->candidates[u][i].user,
                answer.candidates[u][i].user);
    }
  }
}

TEST(ServeProtocolPayloads, TruncatedScoredTopKIsRejected) {
  ScoredTopKAnswer answer;
  answer.candidates = {{ScoredUser{0.5, 2}, ScoredUser{0.125, 7}}};
  std::string payload = EncodeScoredTopKPayload(answer);
  for (size_t len : {payload.size() - 1, payload.size() / 2, size_t{1}})
    EXPECT_FALSE(DecodeScoredTopKPayload(payload.substr(0, len)).ok())
        << "len=" << len;
  EXPECT_FALSE(DecodeScoredTopKPayload(payload + "x").ok());
}

TEST(ServeProtocolPayloads, ShardInfoRoundTrips) {
  ShardInfoAnswer info;
  info.shard_index = 2;
  info.shard_count = 5;
  info.shard_begin = 4000;
  info.shard_total = 10000;
  info.universe_fingerprint = 0xDEADBEEFCAFEF00Dull;
  info.num_anonymized = 123;
  info.default_top_k = 20;
  info.epoch_seq = 9;
  info.staged_segments = 4;
  auto decoded = DecodeShardInfoPayload(EncodeShardInfoPayload(info));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->shard_index, info.shard_index);
  EXPECT_EQ(decoded->shard_count, info.shard_count);
  EXPECT_EQ(decoded->shard_begin, info.shard_begin);
  EXPECT_EQ(decoded->shard_total, info.shard_total);
  EXPECT_EQ(decoded->universe_fingerprint, info.universe_fingerprint);
  EXPECT_EQ(decoded->num_anonymized, info.num_anonymized);
  EXPECT_EQ(decoded->default_top_k, info.default_top_k);
  EXPECT_EQ(decoded->epoch_seq, info.epoch_seq);
  EXPECT_EQ(decoded->staged_segments, info.staged_segments);
}

// Rolling-upgrade interop: the ingest epoch fields are an optional
// trailing extension. A pre-ingest peer's 48-byte payload decodes with
// (epoch_seq, staged_segments) = (0, 0), and a server with nothing to
// report encodes exactly those 48 bytes so pre-ingest decoders (which
// reject trailing bytes) still accept it.
TEST(ServeProtocolPayloads, ShardInfoInteroperatesWithPreIngestPeers) {
  ShardInfoAnswer info;
  info.shard_index = 1;
  info.shard_count = 4;
  info.shard_begin = 250;
  info.shard_total = 1000;
  info.universe_fingerprint = 0x1234u;
  info.num_anonymized = 77;
  info.default_top_k = 10;
  info.epoch_seq = 0;
  info.staged_segments = 0;
  const std::string legacy = EncodeShardInfoPayload(info);
  EXPECT_EQ(legacy.size(), 48u);  // the pre-ingest wire layout, bit for bit
  auto decoded = DecodeShardInfoPayload(legacy);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->shard_total, info.shard_total);
  EXPECT_EQ(decoded->epoch_seq, 0u);
  EXPECT_EQ(decoded->staged_segments, 0u);

  // Non-zero epoch state appends the 16-byte extension; stripping it
  // yields what an old encoder would have sent, and it must still decode.
  info.epoch_seq = 3;
  info.staged_segments = 2;
  const std::string extended = EncodeShardInfoPayload(info);
  EXPECT_EQ(extended.size(), 64u);
  auto stripped = DecodeShardInfoPayload(extended.substr(0, 48));
  ASSERT_TRUE(stripped.ok()) << stripped.status().ToString();
  EXPECT_EQ(stripped->universe_fingerprint, info.universe_fingerprint);
  EXPECT_EQ(stripped->epoch_seq, 0u);
  EXPECT_EQ(stripped->staged_segments, 0u);
  // A half-present extension is a transport error, not silently zero.
  EXPECT_FALSE(DecodeShardInfoPayload(extended.substr(0, 56)).ok());
}

// Second optional trailing extension (pluggable engines): absent means
// structural — all a pre-engine peer can be — and a non-structural server
// forces the epoch pair onto the wire first so field positions never
// shift.
TEST(ServeProtocolPayloads, ShardInfoEngineExtensionRoundTrips) {
  ShardInfoAnswer info;
  info.shard_index = 0;
  info.shard_count = 2;
  info.shard_total = 500;
  info.num_anonymized = 50;
  info.default_top_k = 10;

  // Structural server, boot epoch: the pre-engine 48-byte layout exactly.
  const std::string structural = EncodeShardInfoPayload(info);
  EXPECT_EQ(structural.size(), 48u);
  auto decoded = DecodeShardInfoPayload(structural);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->engine, 0u);

  // Non-structural at boot epoch: the epoch pair is encoded (as zeros)
  // before the engine word, keeping every field at a fixed offset.
  info.engine = 2;
  const std::string with_engine = EncodeShardInfoPayload(info);
  EXPECT_EQ(with_engine.size(), 68u);
  decoded = DecodeShardInfoPayload(with_engine);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->engine, 2u);
  EXPECT_EQ(decoded->epoch_seq, 0u);
  EXPECT_EQ(decoded->staged_segments, 0u);

  // Both extensions at once.
  info.epoch_seq = 5;
  info.staged_segments = 1;
  decoded = DecodeShardInfoPayload(EncodeShardInfoPayload(info));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->engine, 2u);
  EXPECT_EQ(decoded->epoch_seq, 5u);
  EXPECT_EQ(decoded->staged_segments, 1u);

  // What a pre-engine (PR-8) peer would send — epoch pair, no engine
  // word — decodes as structural.
  auto stripped = DecodeShardInfoPayload(
      EncodeShardInfoPayload(info).substr(0, 64));
  ASSERT_TRUE(stripped.ok()) << stripped.status().ToString();
  EXPECT_EQ(stripped->engine, 0u);
  EXPECT_EQ(stripped->epoch_seq, 5u);
  // A half-present engine word is a transport error.
  EXPECT_FALSE(
      DecodeShardInfoPayload(EncodeShardInfoPayload(info).substr(0, 66))
          .ok());
}

TEST(ServeProtocolPayloads, LoadSegmentRoundTrips) {
  const std::string path = "/var/lib/dehealth/delta-0004.dhsg";
  auto decoded = DecodeLoadSegmentPayload(EncodeLoadSegmentPayload(path));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, path);
}

TEST(ServeProtocolPayloads, CorruptLoadSegmentIsRejected) {
  const std::string payload = EncodeLoadSegmentPayload("delta.dhsg");
  EXPECT_FALSE(DecodeLoadSegmentPayload(payload.substr(0, 3)).ok());
  EXPECT_FALSE(DecodeLoadSegmentPayload(payload.substr(0, 7)).ok());
  EXPECT_FALSE(DecodeLoadSegmentPayload(payload + "x").ok());
  EXPECT_FALSE(DecodeLoadSegmentPayload(std::string()).ok());
  // An empty path and an embedded NUL are refused before touching the fs.
  EXPECT_FALSE(
      DecodeLoadSegmentPayload(EncodeLoadSegmentPayload("")).ok());
  EXPECT_FALSE(DecodeLoadSegmentPayload(
                   EncodeLoadSegmentPayload(std::string("a\0b", 3)))
                   .ok());
}

TEST(ServeProtocolPayloads, CorruptShardInfoIsRejected) {
  ShardInfoAnswer info;
  info.shard_index = 0;
  info.shard_count = 3;
  std::string payload = EncodeShardInfoPayload(info);
  EXPECT_FALSE(DecodeShardInfoPayload(payload.substr(0, 7)).ok());
  EXPECT_FALSE(DecodeShardInfoPayload(payload + "zz").ok());
  EXPECT_FALSE(DecodeShardInfoPayload(std::string()).ok());
  // shard_index >= shard_count is a topology lie, not a transport error —
  // but the decoder still refuses to construct the impossible answer.
  ShardInfoAnswer liar;
  liar.shard_index = 3;
  liar.shard_count = 3;
  EXPECT_FALSE(
      DecodeShardInfoPayload(EncodeShardInfoPayload(liar)).ok());
  ShardInfoAnswer zero;
  zero.shard_index = 0;
  zero.shard_count = 0;
  EXPECT_FALSE(
      DecodeShardInfoPayload(EncodeShardInfoPayload(zero)).ok());
}

TEST(ServeProtocolPayloads, StatsRoundTrips) {
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
  stats.max_micros = 15001.0;
  auto decoded = DecodeStatsPayload(EncodeStatsPayload(stats));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->requests_total, 100u);
  EXPECT_EQ(decoded->queries_total, 420u);
  EXPECT_EQ(decoded->batches_total, 17u);
  EXPECT_EQ(decoded->max_batch, 8u);
  EXPECT_EQ(decoded->overload_rejections, 3u);
  EXPECT_EQ(decoded->deadline_expirations, 2u);
  EXPECT_EQ(decoded->queue_depth, 5u);
  EXPECT_EQ(decoded->num_anonymized, 250u);
  EXPECT_EQ(decoded->default_top_k, 10u);
  EXPECT_DOUBLE_EQ(decoded->p50_micros, 850.0);
  EXPECT_DOUBLE_EQ(decoded->p99_micros, 12000.0);
  EXPECT_DOUBLE_EQ(decoded->max_micros, 15001.0);
}

TEST(ServeProtocolPayloads, ErrorRoundTrips) {
  const Status original =
      Status::Unavailable("server overloaded: request queue is full");
  Status decoded;
  ASSERT_TRUE(
      DecodeErrorPayload(EncodeErrorPayload(original), &decoded).ok());
  EXPECT_EQ(decoded.code(), original.code());
  EXPECT_EQ(decoded.message(), original.message());
}

TEST(ServeProtocolPayloads, UnknownErrorCodeDegradesToInternal) {
  std::string payload;
  const uint32_t bogus_code = 99;
  for (int i = 0; i < 4; ++i)
    payload.push_back(static_cast<char>((bogus_code >> (8 * i)) & 0xff));
  const std::string message = "whoops";
  const uint32_t length = static_cast<uint32_t>(message.size());
  for (int i = 0; i < 4; ++i)
    payload.push_back(static_cast<char>((length >> (8 * i)) & 0xff));
  payload += message;
  Status decoded;
  ASSERT_TRUE(DecodeErrorPayload(payload, &decoded).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kInternal);
  EXPECT_NE(decoded.message().find("whoops"), std::string::npos);
}

}  // namespace
}  // namespace dehealth
