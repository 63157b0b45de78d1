#include "job/manifest.h"

#include <cstring>
#include <type_traits>

namespace dehealth {

namespace {

constexpr char kManifestMagic[4] = {'D', 'H', 'J', 'B'};
constexpr char kShardMagic[4] = {'D', 'H', 'S', 'H'};
constexpr uint32_t kVersion = 1;

uint64_t Fnv1a(const char* bytes, size_t n,
               uint64_t h = 1469598103934665603ull) {
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(bytes[i]);
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
uint64_t FnvMixValue(uint64_t h, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  return Fnv1a(buf, sizeof(T), h);
}

template <typename T>
void Append(std::string& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out.append(buf, sizeof(T));
}

Status DecodeError(const char* what_file, const std::string& path,
                   size_t offset, const std::string& what,
                   StatusCode code = StatusCode::kInvalidArgument) {
  std::string message = what_file;
  if (!path.empty()) message += " '" + path + "'";
  message += " (byte " + std::to_string(offset) + "): " + what;
  return Status(code, std::move(message));
}

/// Bounds-checked sequential reader over a payload span (same discipline
/// as the DHIX snapshot decoder: lengths are validated against the
/// remaining span BEFORE any allocation).
class Reader {
 public:
  Reader(const char* what_file, const std::string& bytes, size_t begin,
         size_t end, const std::string& path)
      : what_file_(what_file),
        bytes_(bytes),
        pos_(begin),
        end_(end),
        path_(path) {}

  template <typename T>
  Status Read(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > end_) return Fail("truncated payload");
    std::memcpy(value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  Status Fail(const std::string& what) const {
    return DecodeError(what_file_, path_, pos_, what);
  }

  bool CanHold(uint64_t count, size_t element_size) const {
    return count <= (end_ - pos_) / element_size;
  }

  bool AtEnd() const { return pos_ == end_; }

 private:
  const char* what_file_;
  const std::string& bytes_;
  size_t pos_;
  size_t end_;
  const std::string& path_;
};

/// magic | u32 version | payload | u64 FNV-1a(payload). Validates the
/// frame and returns the payload span [*begin, *end).
Status CheckFrame(const char* what_file, const char magic[4],
                  const std::string& bytes, const std::string& path,
                  size_t* begin, size_t* end) {
  constexpr size_t kHeaderSize = 4 + sizeof(uint32_t);
  constexpr size_t kFooterSize = sizeof(uint64_t);
  if (bytes.size() < kHeaderSize + kFooterSize)
    return DecodeError(what_file, path, bytes.size(),
                       "file smaller than header + footer");
  if (std::memcmp(bytes.data(), magic, 4) != 0)
    return DecodeError(what_file, path, 0, "bad magic");
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  if (version != kVersion)
    return DecodeError(
        what_file, path, 4,
        "unsupported format version " + std::to_string(version),
        StatusCode::kUnimplemented);
  const size_t payload_end = bytes.size() - kFooterSize;
  uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, bytes.data() + payload_end, kFooterSize);
  if (stored_checksum !=
      Fnv1a(bytes.data() + kHeaderSize, payload_end - kHeaderSize))
    return DecodeError(what_file, path, payload_end,
                       "checksum mismatch (corrupt file)");
  *begin = kHeaderSize;
  *end = payload_end;
  return Status::OK();
}

}  // namespace

uint64_t JobManifest::JobFingerprint() const {
  uint64_t h = 1469598103934665603ull;
  h = FnvMixValue(h, anonymized_fingerprint);
  h = FnvMixValue(h, auxiliary_fingerprint);
  h = FnvMixValue(h, config_fingerprint);
  h = FnvMixValue(h, num_users);
  h = FnvMixValue(h, shard_size);
  return h;
}

uint64_t JobConfigFingerprint(const DeHealthConfig& config) {
  // Serialize every result-shaping field into a buffer and hash it.
  // Excluded on purpose: num_threads (results are thread-independent),
  // index_snapshot_path (a cache location), job_dir / job_shard_size (the
  // shard layout changes where bytes land, not what they are — the
  // manifest records shard_size separately), and use_index (the index is
  // bitwise-identical to dense, so checkpoints interchange).
  std::string buf;
  const SimilarityConfig& sim = config.similarity;
  Append(buf, sim.c1);
  Append(buf, sim.c2);
  Append(buf, sim.c3);
  Append(buf, static_cast<int32_t>(sim.num_landmarks));
  Append(buf, static_cast<uint8_t>(sim.idf_weight_attributes ? 1 : 0));

  Append(buf, static_cast<int32_t>(config.top_k));
  Append(buf, static_cast<int32_t>(config.selection));
  Append(buf, static_cast<uint8_t>(config.enable_filtering ? 1 : 0));
  Append(buf, config.filter.epsilon);
  Append(buf, static_cast<int32_t>(config.filter.num_thresholds));

  const RefinedDaConfig& r = config.refined;
  Append(buf, static_cast<int32_t>(r.learner));
  Append(buf, static_cast<int32_t>(r.knn_k));
  Append(buf, r.rlsc_lambda);
  Append(buf, static_cast<int32_t>(r.svm.kernel));
  Append(buf, r.svm.c);
  Append(buf, r.svm.rbf_gamma);
  Append(buf, r.svm.tolerance);
  Append(buf, static_cast<int32_t>(r.svm.max_passes));
  Append(buf, static_cast<int32_t>(r.svm.max_iterations));
  Append(buf, r.svm.seed);
  Append(buf, static_cast<uint8_t>(r.include_structural_features ? 1 : 0));
  Append(buf, static_cast<int32_t>(r.aggregation));
  Append(buf, static_cast<uint8_t>(r.user_level_instances ? 1 : 0));
  Append(buf, static_cast<int32_t>(r.verification));
  Append(buf, r.mean_verification_r);
  Append(buf, static_cast<int32_t>(r.false_addition_count));
  Append(buf, r.seed);

  // The slot of the retired index recall cap: always 0, so job
  // directories written while the cap existed still resume.
  Append(buf, int32_t{0});

  // Slice identity: a job computed over shard i of N holds candidates for
  // a DIFFERENT id space than shard j (or the whole universe), so slices
  // never interchange checkpoints. num_shards (in-process sharding) is
  // deliberately excluded — merged results are bitwise-identical to an
  // unsharded run, so those checkpoints DO interchange.
  Append(buf, static_cast<int32_t>(config.shard_index));
  Append(buf, static_cast<int32_t>(config.shard_count));

  // Engine identity: blind/community scores differ from structural, so
  // their checkpoints must never interchange — with structural OR each
  // other. The structural engine appends nothing, keeping every job
  // directory written before --engine existed valid. engine_seed shapes
  // the community engine's label-propagation result, so it travels too.
  if (config.engine != EngineKind::kStructural) {
    Append(buf, static_cast<int32_t>(config.engine));
    Append(buf, config.engine_seed);
  }
  return Fnv1a(buf.data(), buf.size());
}

std::string EncodeJobManifest(const JobManifest& manifest) {
  std::string out(kManifestMagic, sizeof(kManifestMagic));
  Append(out, kVersion);
  const size_t payload_begin = out.size();
  Append(out, manifest.anonymized_fingerprint);
  Append(out, manifest.auxiliary_fingerprint);
  Append(out, manifest.config_fingerprint);
  Append(out, manifest.num_users);
  Append(out, manifest.shard_size);
  Append(out, Fnv1a(out.data() + payload_begin, out.size() - payload_begin));
  return out;
}

StatusOr<JobManifest> DecodeJobManifest(const std::string& bytes,
                                        const std::string& path) {
  size_t begin = 0, end = 0;
  DEHEALTH_RETURN_IF_ERROR(
      CheckFrame("job manifest", kManifestMagic, bytes, path, &begin, &end));
  Reader reader("job manifest", bytes, begin, end, path);
  JobManifest manifest;
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&manifest.anonymized_fingerprint));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&manifest.auxiliary_fingerprint));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&manifest.config_fingerprint));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&manifest.num_users));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&manifest.shard_size));
  if (!reader.AtEnd()) return reader.Fail("trailing bytes after payload");
  if (manifest.shard_size == 0) return reader.Fail("shard_size is zero");
  return manifest;
}

StatusOr<std::string> EncodeJobShard(const JobShard& shard,
                                     uint64_t job_fingerprint) {
  if (shard.begin > shard.end)
    return Status::Internal("EncodeJobShard: begin > end");
  const size_t span = shard.end - shard.begin;
  switch (shard.phase) {
    case JobShard::Phase::kTopK:
      if (shard.candidates.size() != span)
        return Status::Internal(
            "EncodeJobShard: candidate list count does not match the shard "
            "range");
      break;
    case JobShard::Phase::kRefined:
      if (shard.predictions.size() != span || shard.rejected.size() != span)
        return Status::Internal(
            "EncodeJobShard: prediction/rejected count does not match the "
            "shard range");
      break;
    case JobShard::Phase::kFilter:
      if (shard.begin != 0 || shard.candidates.size() != span ||
          shard.rejected.size() != span)
        return Status::Internal(
            "EncodeJobShard: a filter shard must cover [0, num_users) with "
            "matching candidates + rejected");
      break;
    default:
      return Status::Internal("EncodeJobShard: unknown phase");
  }

  std::string out(kShardMagic, sizeof(kShardMagic));
  Append(out, kVersion);
  const size_t payload_begin = out.size();
  Append(out, job_fingerprint);
  Append(out, static_cast<uint8_t>(shard.phase));
  Append(out, shard.begin);
  Append(out, shard.end);
  if (shard.phase == JobShard::Phase::kTopK ||
      shard.phase == JobShard::Phase::kFilter) {
    for (const std::vector<int>& list : shard.candidates) {
      Append(out, static_cast<uint32_t>(list.size()));
      for (int v : list) Append(out, static_cast<int32_t>(v));
    }
  }
  if (shard.phase == JobShard::Phase::kRefined)
    for (size_t i = 0; i < span; ++i)
      Append(out, static_cast<int32_t>(shard.predictions[i]));
  if (shard.phase == JobShard::Phase::kRefined ||
      shard.phase == JobShard::Phase::kFilter)
    for (size_t i = 0; i < span; ++i)
      Append(out, static_cast<uint8_t>(shard.rejected[i] ? 1 : 0));
  Append(out, Fnv1a(out.data() + payload_begin, out.size() - payload_begin));
  return out;
}

StatusOr<JobShard> DecodeJobShard(const std::string& bytes,
                                  uint64_t job_fingerprint,
                                  JobShard::Phase expected_phase,
                                  uint32_t expected_begin,
                                  uint32_t expected_end,
                                  const std::string& path) {
  size_t begin = 0, end = 0;
  DEHEALTH_RETURN_IF_ERROR(
      CheckFrame("job shard", kShardMagic, bytes, path, &begin, &end));
  Reader reader("job shard", bytes, begin, end, path);

  uint64_t stored_fingerprint = 0;
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&stored_fingerprint));
  if (stored_fingerprint != job_fingerprint)
    return reader.Fail(
        "shard belongs to a different job (forums or config changed)");
  uint8_t phase = 0;
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&phase));
  if (phase != static_cast<uint8_t>(expected_phase))
    return reader.Fail("unexpected phase " + std::to_string(phase));
  JobShard shard;
  shard.phase = expected_phase;
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&shard.begin));
  DEHEALTH_RETURN_IF_ERROR(reader.Read(&shard.end));
  if (shard.begin != expected_begin || shard.end != expected_end)
    return reader.Fail("unexpected user range [" +
                       std::to_string(shard.begin) + ", " +
                       std::to_string(shard.end) + ")");
  const size_t span = shard.end - shard.begin;

  if (expected_phase == JobShard::Phase::kTopK ||
      expected_phase == JobShard::Phase::kFilter) {
    shard.candidates.resize(span);
    for (size_t i = 0; i < span; ++i) {
      uint32_t count = 0;
      DEHEALTH_RETURN_IF_ERROR(reader.Read(&count));
      if (!reader.CanHold(count, sizeof(int32_t)))
        return reader.Fail("candidate list length exceeds payload");
      shard.candidates[i].resize(count);
      for (uint32_t j = 0; j < count; ++j) {
        int32_t v = 0;
        DEHEALTH_RETURN_IF_ERROR(reader.Read(&v));
        shard.candidates[i][j] = v;
      }
    }
  }
  if (expected_phase == JobShard::Phase::kRefined) {
    if (!reader.CanHold(span, sizeof(int32_t) + sizeof(uint8_t)))
      return reader.Fail("prediction list exceeds payload");
    shard.predictions.resize(span);
    for (size_t i = 0; i < span; ++i) {
      int32_t p = 0;
      DEHEALTH_RETURN_IF_ERROR(reader.Read(&p));
      shard.predictions[i] = p;
    }
  }
  if (expected_phase == JobShard::Phase::kRefined ||
      expected_phase == JobShard::Phase::kFilter) {
    if (!reader.CanHold(span, sizeof(uint8_t)))
      return reader.Fail("rejected flags exceed payload");
    shard.rejected.resize(span);
    for (size_t i = 0; i < span; ++i) {
      uint8_t flag = 0;
      DEHEALTH_RETURN_IF_ERROR(reader.Read(&flag));
      if (flag > 1) return reader.Fail("rejected flag out of range");
      shard.rejected[i] = flag != 0;
    }
  }
  if (!reader.AtEnd()) return reader.Fail("trailing bytes after payload");
  return shard;
}

}  // namespace dehealth
