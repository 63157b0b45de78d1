#include "index/snapshot.h"

#include <optional>

#include "common/fault_injection.h"
#include "index/partition.h"
#include "io/byte_codec.h"
#include "io/file_util.h"
#include "obs/standard_metrics.h"
#include "obs/trace.h"

namespace dehealth {

namespace {

constexpr char kMagic[4] = {'D', 'H', 'I', 'X'};
/// v2 added the shard-identity quad (index, count, begin, total) after the
/// auxiliary fingerprint; a v1 file is refused and rebuilt like any
/// snapshot that does not decode.
constexpr uint32_t kVersion = 2;

void PutDoubleVector(std::string& out, const std::vector<double>& v) {
  Put(out, static_cast<uint32_t>(v.size()));
  for (double x : v) Put(out, x);
}

Status ReadDoubleVector(ByteReader& reader, std::vector<double>* v) {
  uint32_t count = 0;
  DEHEALTH_RETURN_IF_ERROR(reader.ReadCount(sizeof(double), &count));
  v->resize(count);
  for (double& x : *v) DEHEALTH_RETURN_IF_ERROR(reader.Read(&x));
  return Status::OK();
}

/// A u32-counted list of (i32 id, f64 weight) pairs: the IDF table and
/// each user's attributes.
void PutWeightedIds(std::string& out,
                    const std::vector<std::pair<int, double>>& pairs) {
  Put(out, static_cast<uint32_t>(pairs.size()));
  for (const auto& [id, w] : pairs) {
    Put(out, static_cast<int32_t>(id));
    Put(out, w);
  }
}

Status ReadWeightedIds(ByteReader& reader,
                       std::vector<std::pair<int, double>>* out) {
  uint32_t count = 0;
  DEHEALTH_RETURN_IF_ERROR(
      reader.ReadCount(sizeof(int32_t) + sizeof(double), &count));
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    int32_t id = 0;
    double w = 0.0;
    DEHEALTH_RETURN_IF_ERROR(reader.Read(&id));
    DEHEALTH_RETURN_IF_ERROR(reader.Read(&w));
    out->emplace_back(id, w);
  }
  return Status::OK();
}

/// Reads the fields before the per-user records, up to and including the
/// user count: all a load needs to tell whether the file is the slice it
/// wants.
Status ReadHeader(ByteReader& reader, CandidateIndexData* data,
                  uint32_t* num_users) {
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&data->c1));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&data->c2));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&data->c3));
  int32_t num_landmarks = 0;
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&num_landmarks));
  data->num_landmarks = num_landmarks;
  uint8_t idf_flag = 0;
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&idf_flag));
  data->idf_weight_attributes = idf_flag != 0;
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&data->auxiliary_fingerprint));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&data->shard_index));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&data->shard_count));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&data->shard_begin));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&data->shard_total));
  if (data->shard_count == 0) return reader.Fail("shard count must be >= 1");
  if (data->shard_index >= data->shard_count)
    return reader.Fail("shard index out of range");
  DEHEALTH_RETURN_IF_ERROR(ReadWeightedIds(reader, &data->idf.weights));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&data->idf.default_weight));
  // 2 doubles + 4 u32 lengths is the smallest possible per-user record.
  return reader.ReadCount(2 * sizeof(double) + 4 * sizeof(uint32_t),
                          num_users);
}

/// Reads the `num_users` per-user records that follow the header, to the
/// end of the frame.
Status ReadUsers(ByteReader& reader, uint32_t num_users,
                 CandidateIndexData* data) {
  data->users.resize(num_users);
  for (UserFeatures& f : data->users) {
    DEHEALTH_RETURN_IF_ERROR(reader.Read(&f.degree));
    DEHEALTH_RETURN_IF_ERROR(reader.Read(&f.weighted_degree));
    DEHEALTH_RETURN_IF_ERROR(ReadDoubleVector(reader, &f.ncs));
    DEHEALTH_RETURN_IF_ERROR(ReadDoubleVector(reader, &f.hop));
    DEHEALTH_RETURN_IF_ERROR(ReadDoubleVector(reader, &f.weighted_hop));
    DEHEALTH_RETURN_IF_ERROR(ReadWeightedIds(reader, &f.attributes));
  }
  DEHEALTH_RETURN_IF_ERROR(reader.ExpectEnd());
  if (data->shard_begin > data->shard_total ||
      static_cast<uint64_t>(data->shard_begin) + num_users >
          data->shard_total)
    return reader.Fail("shard range exceeds universe size");
  return Status::OK();
}

/// True when a snapshot whose header is `header` and `num_users` holds
/// exactly `slice` of the index `config` shapes: the score-shaping fields,
/// the universe fingerprint, the shard identity and the user count all
/// match. The one rule a snapshot, whole or slice, must pass to be reused:
/// the fingerprint alone would accept another slice of the same universe,
/// or a whole index that lost users.
bool HeaderMatches(const CandidateIndexData& header, uint32_t num_users,
                   const SimilarityConfig& config, const IndexSlice& slice) {
  return header.c1 == config.c1 && header.c2 == config.c2 &&
         header.c3 == config.c3 &&
         header.num_landmarks == config.num_landmarks &&
         header.idf_weight_attributes == config.idf_weight_attributes &&
         header.auxiliary_fingerprint == slice.universe_fingerprint &&
         header.shard_index == static_cast<uint32_t>(slice.shard_index) &&
         header.shard_count == static_cast<uint32_t>(slice.shard_count) &&
         header.shard_begin == static_cast<uint32_t>(slice.range.begin) &&
         header.shard_total == static_cast<uint32_t>(slice.universe_size) &&
         num_users ==
             static_cast<uint32_t>(slice.range.end - slice.range.begin);
}

/// The bytes of the snapshot file at `path`, through the load fault points.
StatusOr<std::string> ReadSnapshotFile(const std::string& path) {
  DEHEALTH_RETURN_IF_ERROR(InjectFaultPoint("snapshot.load"));
  StatusOr<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  // Simulated snapshot corruption: the checksum/bounds-checked decoder
  // must answer with a Status (load-or-rebuild then recovers), never UB.
  InjectDataFault("snapshot.load.data", &*bytes);
  return bytes;
}

/// Loads the snapshot at `file` when its header says it holds `slice` of
/// the index `config` shapes (HeaderMatches). A stale file yields nullopt
/// before its per-user records are decoded or its feature store packed;
/// a file that does not load yields its error.
StatusOr<std::optional<CandidateIndex>> LoadMatchingSnapshot(
    const std::string& file, const SimilarityConfig& config,
    const IndexSlice& slice) {
  StatusOr<std::string> bytes = ReadSnapshotFile(file);
  if (!bytes.ok()) return bytes.status();
  StatusOr<ByteReader> frame =
      OpenFrame(*bytes, kMagic, kVersion, "index snapshot", file);
  if (!frame.ok()) return frame.status();
  CandidateIndexData data;
  uint32_t num_users = 0;
  DEHEALTH_RETURN_IF_ERROR(ReadHeader(*frame, &data, &num_users));
  if (!HeaderMatches(data, num_users, config, slice))
    return std::optional<CandidateIndex>();
  DEHEALTH_RETURN_IF_ERROR(ReadUsers(*frame, num_users, &data));
  StatusOr<CandidateIndex> index = CandidateIndex::FromData(
      std::move(data), config.num_threads, config.simd);
  if (!index.ok()) return index.status();
  return std::optional<CandidateIndex>(std::move(index).value());
}

}  // namespace

std::string EncodeIndexSnapshot(const CandidateIndex& index) {
  return EncodeIndexSnapshot(index.data());
}

std::string EncodeIndexSnapshot(const CandidateIndexData& data) {
  std::string out = BeginFrame(kMagic, kVersion);
  Put(out, data.c1);
  Put(out, data.c2);
  Put(out, data.c3);
  Put(out, static_cast<int32_t>(data.num_landmarks));
  Put(out, static_cast<uint8_t>(data.idf_weight_attributes ? 1 : 0));
  Put(out, data.auxiliary_fingerprint);
  Put(out, data.shard_index);
  Put(out, data.shard_count);
  Put(out, data.shard_begin);
  Put(out, data.shard_total);
  PutWeightedIds(out, data.idf.weights);
  Put(out, data.idf.default_weight);

  Put(out, static_cast<uint32_t>(data.users.size()));
  for (const UserFeatures& f : data.users) {
    Put(out, f.degree);
    Put(out, f.weighted_degree);
    PutDoubleVector(out, f.ncs);
    PutDoubleVector(out, f.hop);
    PutDoubleVector(out, f.weighted_hop);
    PutWeightedIds(out, f.attributes);
  }
  EndFrame(out);
  return out;
}

StatusOr<CandidateIndex> DecodeIndexSnapshot(const std::string& bytes,
                                             const std::string& path,
                                             int num_threads, SimdMode simd) {
  StatusOr<ByteReader> frame =
      OpenFrame(bytes, kMagic, kVersion, "index snapshot", path);
  if (!frame.ok()) return frame.status();
  CandidateIndexData data;
  uint32_t num_users = 0;
  DEHEALTH_RETURN_IF_ERROR(ReadHeader(*frame, &data, &num_users));
  DEHEALTH_RETURN_IF_ERROR(ReadUsers(*frame, num_users, &data));
  return CandidateIndex::FromData(std::move(data), num_threads, simd);
}

Status SaveIndexSnapshot(const CandidateIndex& index,
                         const std::string& path) {
  DEHEALTH_RETURN_IF_ERROR(InjectFaultPoint("snapshot.save"));
  return WriteStringToFileAtomic(EncodeIndexSnapshot(index), path);
}

StatusOr<CandidateIndex> LoadIndexSnapshot(const std::string& path,
                                           int num_threads, SimdMode simd) {
  StatusOr<std::string> bytes = ReadSnapshotFile(path);
  if (!bytes.ok()) return bytes.status();
  return DecodeIndexSnapshot(*bytes, path, num_threads, simd);
}

StatusOr<CandidateIndex> LoadOrBuildIndex(const std::string& path,
                                          const UdaGraph& auxiliary,
                                          const SimilarityConfig& config,
                                          int shard_index, int shard_count,
                                          Status* save_status) {
  StatusOr<IndexSlice> slice =
      ComputeIndexSlice(auxiliary, shard_index, shard_count);
  if (!slice.ok()) return slice.status();
  const std::string file = ShardSnapshotPath(path, shard_index, shard_count);
  if (!file.empty()) {
    obs::Span span("index", "snapshot_load");
    StatusOr<std::optional<CandidateIndex>> loaded =
        LoadMatchingSnapshot(file, config, *slice);
    if (loaded.ok() && loaded->has_value()) {
      obs::GetIndexMetrics().snapshot_loads->Increment();
      return std::move(**loaded);
    }
    // A missing file is the normal first run and a stale one is simply
    // rebuilt; one that exists but does not load is damaged (bad magic,
    // checksum, bounds): keep its bytes aside for a post-mortem. A failed
    // rename is not fatal, the rebuild's save overwrites the file.
    if (!loaded.ok() && loaded.status().code() != StatusCode::kNotFound) {
      QuarantineFile(file, loaded.status());
      obs::GetShardMetrics().snapshot_quarantines->Increment();
    }
  }
  obs::Span span("index", "index_rebuild");
  obs::GetIndexMetrics().snapshot_rebuilds->Increment();
  StatusOr<CandidateIndex> built =
      CandidateIndex::Build(auxiliary, config, *slice);
  if (built.ok() && !file.empty()) {
    const Status saved = SaveIndexSnapshot(*built, file);
    if (save_status != nullptr) *save_status = saved;
  }
  return built;
}

}  // namespace dehealth
