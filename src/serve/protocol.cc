#include "serve/protocol.h"

#include "io/byte_codec.h"
#include "io/socket.h"

namespace dehealth {

namespace {

/// "DHQP" | u32 version | u8 type | u32 payload_len.
constexpr size_t kDhqpHeaderBytes = 13;

/// What every payload decoder's errors name: "DHQP payload (byte N): why".
constexpr std::string_view kPayload = "DHQP payload";

void PutIntVector(std::string& out, const std::vector<int>& v) {
  Put(out, static_cast<uint32_t>(v.size()));
  for (int x : v) Put(out, static_cast<int32_t>(x));
}

Status ReadIntVector(ByteReader& reader, std::vector<int>* out) {
  uint32_t n = 0;
  DEHEALTH_RETURN_IF_ERROR(reader.ReadCount(sizeof(int32_t), &n));
  out->resize(n);
  for (int& x : *out) {
    int32_t v = 0;
    DEHEALTH_RETURN_IF_ERROR(reader.Read(&v));
    x = v;
  }
  return Status();
}

bool IsQueryType(RequestType type) {
  return type == RequestType::kTopK || type == RequestType::kRefined ||
         type == RequestType::kFiltered ||
         type == RequestType::kTopKScored;
}

/// Encodes `candidates[i]` + optional per-user rejected flags — the shared
/// shape of the kTopK and kFiltered answers.
std::string EncodeCandidateSets(const std::vector<std::vector<int>>& sets,
                                const std::vector<bool>* rejected) {
  std::string out;
  Put(out, static_cast<uint32_t>(sets.size()));
  for (size_t i = 0; i < sets.size(); ++i) {
    if (rejected != nullptr)
      Put(out, static_cast<uint8_t>((*rejected)[i] ? 1 : 0));
    PutIntVector(out, sets[i]);
  }
  return out;
}

Status DecodeCandidateSets(const std::string& payload,
                           std::vector<std::vector<int>>* sets,
                           std::vector<bool>* rejected) {
  ByteReader reader(payload, kPayload);
  uint32_t n = 0;
  DEHEALTH_RETURN_IF_ERROR(reader.ReadCount(rejected ? 5 : 4, &n));
  sets->resize(n);
  if (rejected != nullptr) rejected->assign(n, false);
  for (uint32_t i = 0; i < n; ++i) {
    if (rejected != nullptr) {
      uint8_t flag = 0;
      DEHEALTH_RETURN_IF_ERROR(reader.Read(&flag));
      (*rejected)[i] = flag != 0;
    }
    DEHEALTH_RETURN_IF_ERROR(ReadIntVector(reader, &(*sets)[i]));
  }
  return reader.ExpectEnd();
}

}  // namespace

Status WriteFrame(int fd, uint8_t type, const std::string& payload) {
  if (payload.size() > kDhqpMaxPayloadBytes)
    return Status::InvalidArgument(
        "DHQP frame: payload of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(kDhqpMaxPayloadBytes) +
        "-byte limit");
  std::string frame = BeginFrame(kDhqpMagic, kDhqpVersion);
  frame.reserve(kDhqpHeaderBytes + payload.size());
  Put(frame, type);
  Put(frame, static_cast<uint32_t>(payload.size()));
  frame += payload;
  return WriteAll(fd, frame.data(), frame.size());
}

Status ReadFrame(int fd, uint8_t* type, std::string* payload) {
  char header[kDhqpHeaderBytes];
  DEHEALTH_RETURN_IF_ERROR(ReadExact(fd, header, sizeof(header)));
  ByteReader reader(std::string_view(header, sizeof(header)), "DHQP frame");
  DEHEALTH_RETURN_IF_ERROR(reader.ExpectHeader(kDhqpMagic, kDhqpVersion));
  uint8_t frame_type = 0;
  uint32_t length = 0;
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&frame_type));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&length));
  if (length > kDhqpMaxPayloadBytes)
    return reader.Fail("announced payload of " + std::to_string(length) +
                       " bytes exceeds the " +
                       std::to_string(kDhqpMaxPayloadBytes) + "-byte limit");
  *type = frame_type;
  payload->resize(length);
  if (length > 0)
    DEHEALTH_RETURN_IF_ERROR(ReadExact(fd, payload->data(), length));
  return Status();
}

std::string EncodeQueryPayload(const QueryRequest& request) {
  std::string out;
  Put(out, static_cast<int32_t>(request.top_k));
  Put(out, request.timeout_ms);
  PutIntVector(out, request.users);
  return out;
}

StatusOr<QueryRequest> DecodeQueryPayload(RequestType type,
                                          const std::string& payload) {
  if (!IsQueryType(type))
    return Status::InvalidArgument(
        "DHQP: request type " +
        std::to_string(static_cast<int>(type)) +
        " does not carry a query payload");
  QueryRequest request;
  request.type = type;
  ByteReader reader(payload, kPayload);
  int32_t top_k = 0;
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&top_k));
  request.top_k = top_k;
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&request.timeout_ms));
  DEHEALTH_RETURN_IF_ERROR(ReadIntVector(reader, &request.users));
  DEHEALTH_RETURN_IF_ERROR(reader.ExpectEnd());
  if (request.top_k < 0)
    return Status::InvalidArgument("DHQP: top_k must be >= 0 (0 = default)");
  if (request.timeout_ms < 0.0 ||
      request.timeout_ms != request.timeout_ms)  // NaN
    return Status::InvalidArgument(
        "DHQP: timeout_ms must be >= 0 (0 = no deadline)");
  return request;
}

std::string EncodeTopKPayload(const TopKAnswer& answer) {
  return EncodeCandidateSets(answer.candidates, nullptr);
}

StatusOr<TopKAnswer> DecodeTopKPayload(const std::string& payload) {
  TopKAnswer answer;
  DEHEALTH_RETURN_IF_ERROR(
      DecodeCandidateSets(payload, &answer.candidates, nullptr));
  return answer;
}

std::string EncodeScoredTopKPayload(const ScoredTopKAnswer& answer) {
  std::string out;
  Put(out, static_cast<uint32_t>(answer.candidates.size()));
  for (const std::vector<ScoredUser>& list : answer.candidates) {
    Put(out, static_cast<uint32_t>(list.size()));
    for (const ScoredUser& c : list) {
      Put(out, static_cast<int32_t>(c.user));
      Put(out, c.score);
    }
  }
  return out;
}

StatusOr<ScoredTopKAnswer> DecodeScoredTopKPayload(
    const std::string& payload) {
  ScoredTopKAnswer answer;
  ByteReader reader(payload, kPayload);
  uint32_t n = 0;
  DEHEALTH_RETURN_IF_ERROR(reader.ReadCount(4, &n));
  answer.candidates.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t m = 0;
    DEHEALTH_RETURN_IF_ERROR(reader.ReadCount(12, &m));
    std::vector<ScoredUser>& list = answer.candidates[i];
    list.resize(m);
    for (uint32_t j = 0; j < m; ++j) {
      int32_t user = 0;
      DEHEALTH_RETURN_IF_ERROR(reader.Read(&user));
      DEHEALTH_RETURN_IF_ERROR(reader.Read(&list[j].score));
      list[j].user = user;
    }
  }
  DEHEALTH_RETURN_IF_ERROR(reader.ExpectEnd());
  return answer;
}

std::string EncodeShardInfoPayload(const ShardInfoAnswer& answer) {
  std::string out;
  Put(out, answer.shard_index);
  Put(out, answer.shard_count);
  Put(out, answer.shard_begin);
  Put(out, answer.shard_total);
  Put(out, answer.universe_fingerprint);
  Put(out, answer.num_anonymized);
  Put(out, answer.default_top_k);
  // The ingest extension travels only when it says something: all-zero
  // means "boot epoch, nothing staged", which is what a decoder assumes
  // when the payload ends here — so a non-ingest (or not-yet-sealed)
  // server stays byte-compatible with pre-ingest peers.
  if (answer.epoch_seq != 0 || answer.staged_segments != 0 ||
      answer.engine != 0) {
    Put(out, answer.epoch_seq);
    Put(out, answer.staged_segments);
  }
  // Second trailing extension (pluggable engines, PR 10): non-structural
  // servers announce their engine; a structural server ends the payload
  // early, which is exactly what a pre-engine decoder assumes.
  if (answer.engine != 0) Put(out, answer.engine);
  return out;
}

StatusOr<ShardInfoAnswer> DecodeShardInfoPayload(const std::string& payload) {
  ShardInfoAnswer answer;
  ByteReader reader(payload, kPayload);
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&answer.shard_index));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&answer.shard_count));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&answer.shard_begin));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&answer.shard_total));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&answer.universe_fingerprint));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&answer.num_anonymized));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&answer.default_top_k));
  // Optional trailing extension (streaming ingestion, PR 8): a pre-ingest
  // peer's 48-byte payload simply ends here and means "boot epoch,
  // nothing staged" — exactly the defaults — so mixed-version fleets
  // keep interoperating through a rolling upgrade without a version bump.
  if (!reader.AtEnd()) {
    DEHEALTH_RETURN_IF_ERROR(reader.Read(&answer.epoch_seq));
    DEHEALTH_RETURN_IF_ERROR(reader.Read(&answer.staged_segments));
  }
  // Second optional extension (pluggable engines, PR 10): absent means
  // structural, which is all a pre-engine peer can be.
  if (!reader.AtEnd())
    DEHEALTH_RETURN_IF_ERROR(reader.Read(&answer.engine));
  DEHEALTH_RETURN_IF_ERROR(reader.ExpectEnd());
  if (answer.shard_count == 0)
    return Status::InvalidArgument("DHQP: shard_count must be >= 1");
  if (answer.shard_index >= answer.shard_count)
    return Status::InvalidArgument("DHQP: shard_index out of range");
  return answer;
}

std::string EncodeLoadSegmentPayload(const std::string& segment_path) {
  std::string out;
  Put(out, static_cast<uint32_t>(segment_path.size()));
  out += segment_path;
  return out;
}

StatusOr<std::string> DecodeLoadSegmentPayload(const std::string& payload) {
  ByteReader reader(payload, kPayload);
  uint32_t length = 0;
  std::string path;
  DEHEALTH_RETURN_IF_ERROR(reader.ReadCount(1, &length));
  DEHEALTH_RETURN_IF_ERROR(reader.ReadBytes(length, &path));
  DEHEALTH_RETURN_IF_ERROR(reader.ExpectEnd());
  if (path.empty())
    return Status::InvalidArgument("DHQP: kLoadSegment path is empty");
  if (path.find('\0') != std::string::npos)
    return Status::InvalidArgument("DHQP: kLoadSegment path has NUL byte");
  return path;
}

std::string EncodeRefinedPayload(const RefinedAnswer& answer) {
  std::string out;
  Put(out, static_cast<uint32_t>(answer.predictions.size()));
  for (size_t i = 0; i < answer.predictions.size(); ++i) {
    Put(out, static_cast<int32_t>(answer.predictions[i]));
    Put(out, static_cast<uint8_t>(answer.rejected[i] ? 1 : 0));
  }
  return out;
}

StatusOr<RefinedAnswer> DecodeRefinedPayload(const std::string& payload) {
  RefinedAnswer answer;
  ByteReader reader(payload, kPayload);
  uint32_t n = 0;
  DEHEALTH_RETURN_IF_ERROR(reader.ReadCount(5, &n));
  answer.predictions.resize(n);
  answer.rejected.assign(n, false);
  for (uint32_t i = 0; i < n; ++i) {
    int32_t prediction = 0;
    uint8_t rejected = 0;
    DEHEALTH_RETURN_IF_ERROR(reader.Read(&prediction));
    DEHEALTH_RETURN_IF_ERROR(reader.Read(&rejected));
    answer.predictions[i] = prediction;
    answer.rejected[i] = rejected != 0;
  }
  DEHEALTH_RETURN_IF_ERROR(reader.ExpectEnd());
  return answer;
}

std::string EncodeFilteredPayload(const FilteredAnswer& answer) {
  return EncodeCandidateSets(answer.candidates, &answer.rejected);
}

StatusOr<FilteredAnswer> DecodeFilteredPayload(const std::string& payload) {
  FilteredAnswer answer;
  DEHEALTH_RETURN_IF_ERROR(
      DecodeCandidateSets(payload, &answer.candidates, &answer.rejected));
  return answer;
}

std::string EncodeStatsPayload(const ServerStatsSnapshot& stats) {
  std::string out;
  Put(out, stats.requests_total);
  Put(out, stats.queries_total);
  Put(out, stats.batches_total);
  Put(out, stats.max_batch);
  Put(out, stats.overload_rejections);
  Put(out, stats.deadline_expirations);
  Put(out, stats.queue_depth);
  Put(out, stats.num_anonymized);
  Put(out, stats.default_top_k);
  Put(out, stats.p50_micros);
  Put(out, stats.p99_micros);
  Put(out, stats.max_micros);
  return out;
}

StatusOr<ServerStatsSnapshot> DecodeStatsPayload(const std::string& payload) {
  ServerStatsSnapshot stats;
  ByteReader reader(payload, kPayload);
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&stats.requests_total));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&stats.queries_total));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&stats.batches_total));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&stats.max_batch));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&stats.overload_rejections));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&stats.deadline_expirations));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&stats.queue_depth));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&stats.num_anonymized));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&stats.default_top_k));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&stats.p50_micros));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&stats.p99_micros));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&stats.max_micros));
  DEHEALTH_RETURN_IF_ERROR(reader.ExpectEnd());
  return stats;
}

std::string EncodeErrorPayload(const Status& status) {
  std::string out;
  Put(out, static_cast<uint32_t>(status.code()));
  Put(out, static_cast<uint32_t>(status.message().size()));
  out += status.message();
  return out;
}

Status DecodeErrorPayload(const std::string& payload, Status* error) {
  ByteReader reader(payload, kPayload);
  uint32_t code = 0;
  uint32_t length = 0;
  std::string message;
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&code));
  DEHEALTH_RETURN_IF_ERROR(reader.ReadCount(1, &length));
  DEHEALTH_RETURN_IF_ERROR(reader.ReadBytes(length, &message));
  if (code == 0 || code > static_cast<uint32_t>(StatusCode::kCancelled)) {
    *error = Status::Internal("peer error (unknown code " +
                              std::to_string(code) + "): " + message);
    return Status();
  }
  *error = Status(static_cast<StatusCode>(code), std::move(message));
  return Status();
}

}  // namespace dehealth
