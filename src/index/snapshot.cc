#include "index/snapshot.h"

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

/// True when `index` is exactly `slice` of the index `config` shapes: the
/// score-shaping fields, the universe fingerprint, the shard identity and
/// the user count all match. The one rule a snapshot, whole or slice, must
/// pass to be reused: the fingerprint alone would accept another slice of
/// the same universe, or a whole index that lost users.
bool SnapshotMatches(const CandidateIndex& index,
                     const SimilarityConfig& config, const IndexSlice& slice) {
  const CandidateIndexData& data = index.data();
  return data.c1 == config.c1 && data.c2 == config.c2 &&
         data.c3 == config.c3 && data.num_landmarks == config.num_landmarks &&
         data.idf_weight_attributes == config.idf_weight_attributes &&
         index.slice() == slice;
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
  ByteReader& reader = *frame;
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
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&data.shard_index));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&data.shard_count));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&data.shard_begin));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&data.shard_total));
  if (data.shard_count == 0) return reader.Fail("shard count must be >= 1");
  if (data.shard_index >= data.shard_count)
    return reader.Fail("shard index out of range");
  DEHEALTH_RETURN_IF_ERROR(ReadWeightedIds(reader, &data.idf.weights));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&data.idf.default_weight));

  uint32_t num_users = 0;
  // 2 doubles + 4 u32 lengths is the smallest possible per-user record.
  DEHEALTH_RETURN_IF_ERROR(reader.ReadCount(
      2 * sizeof(double) + 4 * sizeof(uint32_t), &num_users));
  data.users.resize(num_users);
  for (UserFeatures& f : data.users) {
    DEHEALTH_RETURN_IF_ERROR(reader.Read(&f.degree));
    DEHEALTH_RETURN_IF_ERROR(reader.Read(&f.weighted_degree));
    DEHEALTH_RETURN_IF_ERROR(ReadDoubleVector(reader, &f.ncs));
    DEHEALTH_RETURN_IF_ERROR(ReadDoubleVector(reader, &f.hop));
    DEHEALTH_RETURN_IF_ERROR(ReadDoubleVector(reader, &f.weighted_hop));
    DEHEALTH_RETURN_IF_ERROR(ReadWeightedIds(reader, &f.attributes));
  }
  DEHEALTH_RETURN_IF_ERROR(reader.ExpectEnd());
  if (data.shard_begin > data.shard_total ||
      static_cast<uint64_t>(data.shard_begin) + num_users >
          data.shard_total)
    return reader.Fail("shard range exceeds universe size");
  return CandidateIndex::FromData(std::move(data), num_threads, simd);
}

Status SaveIndexSnapshot(const CandidateIndex& index,
                         const std::string& path) {
  DEHEALTH_RETURN_IF_ERROR(InjectFaultPoint("snapshot.save"));
  return WriteStringToFileAtomic(EncodeIndexSnapshot(index), path);
}

StatusOr<CandidateIndex> LoadIndexSnapshot(const std::string& path,
                                           int num_threads, SimdMode simd) {
  DEHEALTH_RETURN_IF_ERROR(InjectFaultPoint("snapshot.load"));
  StatusOr<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  // Simulated snapshot corruption: the checksum/bounds-checked decoder
  // must answer with a Status (load-or-rebuild then recovers), never UB.
  InjectDataFault("snapshot.load.data", &*bytes);
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
    StatusOr<CandidateIndex> loaded =
        LoadIndexSnapshot(file, config.num_threads, config.simd);
    if (loaded.ok() && SnapshotMatches(*loaded, config, *slice)) {
      obs::GetIndexMetrics().snapshot_loads->Increment();
      return loaded;
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
