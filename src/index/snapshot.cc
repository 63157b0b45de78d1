#include "index/snapshot.h"

#include <cstring>
#include <limits>
#include <type_traits>

#include "common/fault_injection.h"
#include "io/file_util.h"
#include "obs/standard_metrics.h"
#include "obs/trace.h"

namespace dehealth {

namespace {

constexpr char kMagic[4] = {'D', 'H', 'I', 'X'};
/// v2 adds the shard-identity quad (index, count, begin, total) after the
/// auxiliary fingerprint; v1 snapshots decode as shard 0 of 1.
constexpr uint32_t kVersion = 2;

uint64_t Fnv1a(const char* bytes, size_t n) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(bytes[i]);
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
void Append(std::string& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out.append(buf, sizeof(T));
}

void AppendDoubleVector(std::string& out, const std::vector<double>& v) {
  Append(out, static_cast<uint32_t>(v.size()));
  for (double x : v) Append(out, x);
}

/// "index snapshot 'path' (byte N): what" — every decode failure names the
/// file it came from (when known) and the byte offset where parsing
/// stopped, so a corrupt snapshot in a directory of many is identifiable
/// from the error alone.
Status DecodeError(const std::string& path, size_t offset,
                   const std::string& what,
                   StatusCode code = StatusCode::kInvalidArgument) {
  std::string message = "index snapshot ";
  if (!path.empty()) message += "'" + path + "' ";
  message += "(byte " + std::to_string(offset) + "): " + what;
  return Status(code, std::move(message));
}

/// Bounds-checked sequential reader over the payload span. `pos()` is the
/// absolute byte offset into the snapshot, used for error context.
class Reader {
 public:
  Reader(const std::string& bytes, size_t begin, size_t end,
         const std::string& path)
      : bytes_(bytes), pos_(begin), end_(end), path_(path) {}

  template <typename T>
  Status Read(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > end_)
      return Fail("truncated payload");
    std::memcpy(value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  Status ReadDoubleVector(std::vector<double>* v) {
    uint32_t count = 0;
    DEHEALTH_RETURN_IF_ERROR(Read(&count));
    if (static_cast<size_t>(count) > (end_ - pos_) / sizeof(double))
      return Fail("vector length exceeds payload");
    v->resize(count);
    for (uint32_t i = 0; i < count; ++i) DEHEALTH_RETURN_IF_ERROR(Read(&(*v)[i]));
    return Status::OK();
  }

  Status Fail(const std::string& what) const {
    return DecodeError(path_, pos_, what);
  }

  size_t pos() const { return pos_; }

  /// True when at least `count` elements of `element_size` bytes can still
  /// be read — rejects absurd counts BEFORE any allocation, so a snapshot
  /// that passes the checksum but lies about lengths still fails with a
  /// Status instead of std::bad_alloc.
  bool CanHold(uint64_t count, size_t element_size) const {
    return count <= (end_ - pos_) / element_size;
  }

  bool AtEnd() const { return pos_ == end_; }

 private:
  const std::string& bytes_;
  size_t pos_;
  size_t end_;
  const std::string& path_;
};

}  // namespace

std::string EncodeIndexSnapshot(const CandidateIndex& index) {
  const CandidateIndexData& data = index.data();
  std::string out(kMagic, sizeof(kMagic));
  Append(out, kVersion);
  const size_t payload_begin = out.size();

  Append(out, data.c1);
  Append(out, data.c2);
  Append(out, data.c3);
  Append(out, static_cast<int32_t>(data.num_landmarks));
  Append(out, static_cast<uint8_t>(data.idf_weight_attributes ? 1 : 0));
  Append(out, data.auxiliary_fingerprint);
  Append(out, data.shard_index);
  Append(out, data.shard_count);
  Append(out, data.shard_begin);
  Append(out, data.shard_total);

  Append(out, static_cast<uint32_t>(data.idf.weights.size()));
  for (const auto& [id, w] : data.idf.weights) {
    Append(out, static_cast<int32_t>(id));
    Append(out, w);
  }
  Append(out, data.idf.default_weight);

  Append(out, static_cast<uint32_t>(data.users.size()));
  for (const UserFeatures& f : data.users) {
    Append(out, f.degree);
    Append(out, f.weighted_degree);
    AppendDoubleVector(out, f.ncs);
    AppendDoubleVector(out, f.hop);
    AppendDoubleVector(out, f.weighted_hop);
    Append(out, static_cast<uint32_t>(f.attributes.size()));
    for (const auto& [id, w] : f.attributes) {
      Append(out, static_cast<int32_t>(id));
      Append(out, w);
    }
  }

  Append(out, Fnv1a(out.data() + payload_begin, out.size() - payload_begin));
  return out;
}

StatusOr<CandidateIndex> DecodeIndexSnapshot(const std::string& bytes,
                                             const std::string& path) {
  constexpr size_t kHeaderSize = sizeof(kMagic) + sizeof(uint32_t);
  constexpr size_t kFooterSize = sizeof(uint64_t);
  if (bytes.size() < kHeaderSize + kFooterSize)
    return DecodeError(path, bytes.size(),
                       "file smaller than header + footer");
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
    return DecodeError(path, 0,
                       "bad magic (not a candidate-index snapshot)");
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + sizeof(kMagic), sizeof(version));
  if (version < 1 || version > kVersion)
    return DecodeError(path, sizeof(kMagic),
                       "unsupported format version " +
                           std::to_string(version),
                       StatusCode::kUnimplemented);

  const size_t payload_end = bytes.size() - kFooterSize;
  uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, bytes.data() + payload_end, kFooterSize);
  const uint64_t actual_checksum =
      Fnv1a(bytes.data() + kHeaderSize, payload_end - kHeaderSize);
  if (stored_checksum != actual_checksum)
    return DecodeError(path, payload_end,
                       "checksum mismatch (corrupt snapshot)");

  Reader reader(bytes, kHeaderSize, payload_end, path);
  CandidateIndexData data;
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&data.c1));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&data.c2));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&data.c3));
  int32_t num_landmarks = 0;
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&num_landmarks));
  data.num_landmarks = num_landmarks;
  uint8_t idf_flag = 0;
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&idf_flag));
  data.idf_weight_attributes = idf_flag != 0;
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&data.auxiliary_fingerprint));
  if (version >= 2) {
    DEHEALTH_RETURN_IF_ERROR(reader.Read(&data.shard_index));
    DEHEALTH_RETURN_IF_ERROR(reader.Read(&data.shard_count));
    DEHEALTH_RETURN_IF_ERROR(reader.Read(&data.shard_begin));
    DEHEALTH_RETURN_IF_ERROR(reader.Read(&data.shard_total));
    if (data.shard_count == 0)
      return reader.Fail("shard count must be >= 1");
    if (data.shard_index >= data.shard_count)
      return reader.Fail("shard index out of range");
  }

  uint32_t idf_count = 0;
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&idf_count));
  if (!reader.CanHold(idf_count, sizeof(int32_t) + sizeof(double)))
    return reader.Fail("idf table length exceeds payload");
  data.idf.weights.reserve(idf_count);
  for (uint32_t i = 0; i < idf_count; ++i) {
    int32_t id = 0;
    double w = 0.0;
    DEHEALTH_RETURN_IF_ERROR(reader.Read(&id));
    DEHEALTH_RETURN_IF_ERROR(reader.Read(&w));
    data.idf.weights.emplace_back(id, w);
  }
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&data.idf.default_weight));

  uint32_t num_users = 0;
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&num_users));
  // 2 doubles + 4 u32 lengths is the smallest possible per-user record.
  if (!reader.CanHold(num_users, 2 * sizeof(double) + 4 * sizeof(uint32_t)))
    return reader.Fail("user count exceeds payload");
  data.users.resize(num_users);
  for (uint32_t u = 0; u < num_users; ++u) {
    UserFeatures& f = data.users[u];
    DEHEALTH_RETURN_IF_ERROR(reader.Read(&f.degree));
    DEHEALTH_RETURN_IF_ERROR(reader.Read(&f.weighted_degree));
    DEHEALTH_RETURN_IF_ERROR(reader.ReadDoubleVector(&f.ncs));
    DEHEALTH_RETURN_IF_ERROR(reader.ReadDoubleVector(&f.hop));
    DEHEALTH_RETURN_IF_ERROR(reader.ReadDoubleVector(&f.weighted_hop));
    uint32_t attr_count = 0;
    DEHEALTH_RETURN_IF_ERROR(reader.Read(&attr_count));
    if (!reader.CanHold(attr_count, sizeof(int32_t) + sizeof(double)))
      return reader.Fail("attribute list length exceeds payload");
    f.attributes.reserve(attr_count);
    for (uint32_t i = 0; i < attr_count; ++i) {
      int32_t id = 0;
      double w = 0.0;
      DEHEALTH_RETURN_IF_ERROR(reader.Read(&id));
      DEHEALTH_RETURN_IF_ERROR(reader.Read(&w));
      f.attributes.emplace_back(id, w);
    }
  }
  if (!reader.AtEnd())
    return reader.Fail("trailing bytes after payload");
  // A v1 snapshot predates sharding: it is the whole universe by
  // definition, so its shard_total is its own user count.
  if (version < 2) data.shard_total = num_users;
  if (data.shard_begin > data.shard_total ||
      static_cast<uint64_t>(data.shard_begin) + num_users >
          data.shard_total)
    return reader.Fail("shard range exceeds universe size");
  return CandidateIndex::FromData(std::move(data));
}

Status SaveIndexSnapshot(const CandidateIndex& index,
                         const std::string& path) {
  DEHEALTH_RETURN_IF_ERROR(InjectFaultPoint("snapshot.save"));
  return WriteStringToFileAtomic(EncodeIndexSnapshot(index), path);
}

StatusOr<CandidateIndex> LoadIndexSnapshot(const std::string& path) {
  DEHEALTH_RETURN_IF_ERROR(InjectFaultPoint("snapshot.load"));
  StatusOr<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  // Simulated snapshot corruption: the checksum/bounds-checked decoder
  // must answer with a Status (load-or-rebuild then recovers), never UB.
  InjectDataFault("snapshot.load.data", &*bytes);
  return DecodeIndexSnapshot(*bytes, path);
}

StatusOr<CandidateIndex> LoadOrBuildIndex(const std::string& path,
                                          const UdaGraph& auxiliary,
                                          const SimilarityConfig& config) {
  if (!path.empty()) {
    obs::Span span("index", "snapshot_load");
    StatusOr<CandidateIndex> loaded = LoadIndexSnapshot(path);
    if (loaded.ok()) {
      const CandidateIndexData& data = loaded->data();
      const bool config_matches =
          data.c1 == config.c1 && data.c2 == config.c2 &&
          data.c3 == config.c3 &&
          data.num_landmarks == config.num_landmarks &&
          data.idf_weight_attributes == config.idf_weight_attributes;
      // A shard-slice snapshot carries the UNIVERSE fingerprint, so the
      // fingerprint check alone would wrongly accept it as a full index —
      // only shard 0 of 1 is reusable here.
      if (config_matches && data.shard_count == 1 && data.shard_index == 0 &&
          data.auxiliary_fingerprint == FingerprintForIndex(auxiliary)) {
        obs::GetIndexMetrics().snapshot_loads->Increment();
        return loaded;
      }
    }
  }
  obs::Span span("index", "index_rebuild");
  obs::GetIndexMetrics().snapshot_rebuilds->Increment();
  StatusOr<CandidateIndex> built = CandidateIndex::Build(auxiliary, config);
  if (!built.ok()) return built.status();
  if (!path.empty())
    DEHEALTH_RETURN_IF_ERROR(SaveIndexSnapshot(*built, path));
  return built;
}

}  // namespace dehealth
