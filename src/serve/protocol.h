#ifndef DEHEALTH_SERVE_PROTOCOL_H_
#define DEHEALTH_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/top_k.h"

namespace dehealth {

/// DHQP — the De-Health query protocol spoken between dehealth_serve and
/// its clients. Every message is one length-prefixed binary frame whose
/// magic + version header, version rule and encoding are the ones of
/// io/byte_codec.h, so stale peers fail fast and loudly:
///
///   "DHQP" | u32 version | u8 type | u32 payload_len | payload
///
/// All integers are little-endian; doubles travel as their IEEE-754 bit
/// pattern in a u64. A connection is a sequential request/response stream:
/// the client writes one request frame and reads exactly one response
/// frame before the next request.

inline constexpr char kDhqpMagic[4] = {'D', 'H', 'Q', 'P'};
inline constexpr uint32_t kDhqpVersion = 1;
/// Upper bound on a single frame's payload; a frame announcing more is
/// rejected before any allocation (garbage/hostile peer protection).
inline constexpr uint32_t kDhqpMaxPayloadBytes = 64u << 20;

/// Client-to-server frame types.
enum class RequestType : uint8_t {
  kTopK = 1,      // phase-1b candidate sets for the listed users
  kRefined = 2,   // phase-2 refined-DA predictions for the listed users
  kFiltered = 3,  // post-filtering candidate sets + ⊥ verdicts
  kStats = 4,     // live server metrics (bypasses the request queue)
  kShutdown = 5,  // graceful drain: stop accepting, answer what's queued
  kMetrics = 6,   // Prometheus text exposition (bypasses the queue)
  /// Sharding extensions. Still protocol version 1: a v1 server that
  /// predates them answers kError (unknown/undecodable request), which the
  /// router surfaces — no version bump needed for an additive type.
  kTopKScored = 7,  // kTopK keeping exact scores (what a router merges)
  kShardInfo = 8,   // shard identity + universe fingerprint (bypasses queue)
  /// Streaming-ingestion admin messages (additive, still version 1).
  /// Both bypass the request queue like kShardInfo: they are handled on
  /// the connection's reader thread, so a rebuild never blocks queries —
  /// in-flight queries keep the old epoch alive through its shared_ptr.
  /// Both answer kOk with a ShardInfo payload (the post-op epoch state).
  kLoadSegment = 9,  // stage + apply one DHSG delta segment (payload: path)
  kSealEpoch = 10,   // rebuild the engine from staged state, swap epochs
};

/// Server-to-client frame types.
enum class ResponseType : uint8_t {
  kOk = 64,          // payload is the answer for the request type
  kError = 65,       // payload is an encoded Status
  kOverloaded = 66,  // rejected at admission: queue full (payload: Status)
  kTimeout = 67,     // deadline expired before execution (payload: Status)
  /// A successful answer computed from a SUBSET of shards (some backends
  /// were down and the router allows degraded answers). Payload is the
  /// normal kOk payload for the request type; only the frame type differs.
  kPartial = 68,
};

/// One query over the wire (kTopK / kTopKScored / kRefined / kFiltered).
struct QueryRequest {
  RequestType type = RequestType::kTopK;
  /// Anonymized user ids to answer; answers come back in the same order.
  std::vector<int> users;
  /// kTopK only: candidate-set size; 0 means the server's configured K.
  int top_k = 0;
  /// Deadline covering queue wait: if the request is still queued this
  /// many milliseconds after the server received it, it is answered with
  /// kTimeout instead of being executed. 0 = no deadline.
  double timeout_ms = 0.0;
};

/// Answer to kTopK: candidates[i] belongs to users[i]. `partial` mirrors
/// the frame type (kPartial vs kOk — set by a degraded router, never
/// serialized in the payload).
struct TopKAnswer {
  std::vector<std::vector<int>> candidates;
  bool partial = false;
};

/// Answer to kTopKScored: candidates[i] belongs to users[i], each entry
/// carrying the exact score's full IEEE-754 bits — what a scatter-gather
/// router needs to re-rank per-shard heaps bitwise-identically to a
/// single-process run. A backend answers with LOCAL candidate ids
/// translated to GLOBAL ids (+ shard_begin). `partial` mirrors the frame
/// type (kPartial vs kOk) and is never serialized in the payload.
struct ScoredTopKAnswer {
  std::vector<std::vector<ScoredUser>> candidates;
  bool partial = false;
};

/// Answer to kShardInfo: which slice of which universe this server holds.
/// The router fails closed unless its backends form exactly one partition
/// of one universe (same fingerprint, ranges covering [0, shard_total)).
struct ShardInfoAnswer {
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;
  uint64_t shard_begin = 0;
  uint64_t shard_total = 0;       // universe size (all shards agree)
  uint64_t universe_fingerprint = 0;
  uint64_t num_anonymized = 0;
  uint64_t default_top_k = 0;
  /// Streaming-ingestion epoch state: how many seals this server has
  /// performed (0 = the boot epoch, or a server without --ingest) and how
  /// many delta segments are staged but not yet sealed. The router refuses
  /// a fleet whose backends disagree on epoch_seq unless
  /// --allow-epoch-skew: mixed epochs serve from different logical forums.
  /// On the wire this pair is an OPTIONAL trailing extension: encoded only
  /// when non-zero, defaulting to (0, 0) when the payload ends without it,
  /// so pre-ingest peers interoperate with this build in both directions
  /// during a rolling upgrade (no version bump).
  uint64_t epoch_seq = 0;
  uint64_t staged_segments = 0;
  /// Which phase-1 attack engine built this server's score source
  /// (EngineKind as a small integer: 0 = structural, 1 = blind,
  /// 2 = community). A second optional trailing extension after the epoch
  /// pair: encoded only when non-zero (forcing the epoch pair onto the
  /// wire first so field positions stay fixed), defaulting to structural
  /// when the payload ends early — pre-engine peers are all structural,
  /// so rolling upgrades keep interoperating. The router refuses a fleet
  /// whose backends report different engines: their scores live on
  /// different scales and a merged ranking would be meaningless.
  uint32_t engine = 0;
};

/// Answer to kRefined: entry i belongs to users[i]; predictions use the
/// library convention (auxiliary id, or kNotPresent for ⊥).
struct RefinedAnswer {
  std::vector<int> predictions;
  std::vector<bool> rejected;
};

/// Answer to kFiltered: post-filtering candidate sets and ⊥ verdicts.
struct FilteredAnswer {
  std::vector<std::vector<int>> candidates;
  std::vector<bool> rejected;
};

/// Answer to kStats: a point-in-time snapshot of the server's counters.
struct ServerStatsSnapshot {
  uint64_t requests_total = 0;    // frames received (all types)
  uint64_t queries_total = 0;     // user ids summed over query requests
  uint64_t batches_total = 0;     // executor wake-ups that ran work
  uint64_t max_batch = 0;         // largest coalesced batch so far
  uint64_t overload_rejections = 0;
  uint64_t deadline_expirations = 0;
  uint64_t queue_depth = 0;       // gauge at snapshot time
  uint64_t num_anonymized = 0;    // dataset size (lets clients say "all")
  uint64_t default_top_k = 0;     // the server's configured K
  double p50_micros = 0.0;        // receive→response-ready latency
  double p99_micros = 0.0;
  double max_micros = 0.0;
};

/// Writes one DHQP frame (header + payload) to a connected socket.
Status WriteFrame(int fd, uint8_t type, const std::string& payload);

/// Reads one DHQP frame. OutOfRange when the peer closed cleanly before a
/// frame started (end of stream); InvalidArgument/Unimplemented on a
/// malformed or future-version header.
Status ReadFrame(int fd, uint8_t* type, std::string* payload);

// Payload codecs, shared by client and server. Decoders never trust the
// wire: every truncation or length overrun fails with the byte offset.
std::string EncodeQueryPayload(const QueryRequest& request);
StatusOr<QueryRequest> DecodeQueryPayload(RequestType type,
                                          const std::string& payload);

std::string EncodeTopKPayload(const TopKAnswer& answer);
StatusOr<TopKAnswer> DecodeTopKPayload(const std::string& payload);

std::string EncodeScoredTopKPayload(const ScoredTopKAnswer& answer);
StatusOr<ScoredTopKAnswer> DecodeScoredTopKPayload(
    const std::string& payload);

std::string EncodeShardInfoPayload(const ShardInfoAnswer& answer);
StatusOr<ShardInfoAnswer> DecodeShardInfoPayload(const std::string& payload);

/// kLoadSegment carries the server-local path of the DHSG segment to
/// stage: u32 length | bytes. (The segment file itself is read by the
/// server — payloads stay small and the checksummed DHSG codec, not DHQP,
/// validates the content.)
std::string EncodeLoadSegmentPayload(const std::string& segment_path);
StatusOr<std::string> DecodeLoadSegmentPayload(const std::string& payload);

std::string EncodeRefinedPayload(const RefinedAnswer& answer);
StatusOr<RefinedAnswer> DecodeRefinedPayload(const std::string& payload);

std::string EncodeFilteredPayload(const FilteredAnswer& answer);
StatusOr<FilteredAnswer> DecodeFilteredPayload(const std::string& payload);

std::string EncodeStatsPayload(const ServerStatsSnapshot& stats);
StatusOr<ServerStatsSnapshot> DecodeStatsPayload(const std::string& payload);

/// A Status on the wire: u32 code | u32 length | message bytes.
std::string EncodeErrorPayload(const Status& status);
/// Decodes the transported error into *error. The return value reports
/// *decode* failures only; the peer's error lands in *error.
Status DecodeErrorPayload(const std::string& payload, Status* error);

}  // namespace dehealth

#endif  // DEHEALTH_SERVE_PROTOCOL_H_
