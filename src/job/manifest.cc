#include "job/manifest.h"

#include "io/byte_codec.h"

namespace dehealth {

namespace {

constexpr char kManifestMagic[4] = {'D', 'H', 'J', 'B'};
constexpr char kShardMagic[4] = {'D', 'H', 'S', 'H'};
constexpr uint32_t kVersion = 1;

}  // namespace

uint64_t JobManifest::JobFingerprint() const {
  uint64_t h = Fnv1aValue(kFnv1aBasis, anonymized_fingerprint);
  h = Fnv1aValue(h, auxiliary_fingerprint);
  h = Fnv1aValue(h, config_fingerprint);
  h = Fnv1aValue(h, num_users);
  return Fnv1aValue(h, shard_size);
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
  Put(buf, sim.c1);
  Put(buf, sim.c2);
  Put(buf, sim.c3);
  Put(buf, static_cast<int32_t>(sim.num_landmarks));
  Put(buf, static_cast<uint8_t>(sim.idf_weight_attributes ? 1 : 0));

  Put(buf, static_cast<int32_t>(config.top_k));
  Put(buf, static_cast<int32_t>(config.selection));
  Put(buf, static_cast<uint8_t>(config.enable_filtering ? 1 : 0));
  Put(buf, config.filter.epsilon);
  Put(buf, static_cast<int32_t>(config.filter.num_thresholds));

  const RefinedDaConfig& r = config.refined;
  Put(buf, static_cast<int32_t>(r.learner));
  Put(buf, static_cast<int32_t>(r.knn_k));
  Put(buf, r.rlsc_lambda);
  Put(buf, static_cast<int32_t>(r.svm.kernel));
  Put(buf, r.svm.c);
  Put(buf, r.svm.rbf_gamma);
  Put(buf, r.svm.tolerance);
  Put(buf, static_cast<int32_t>(r.svm.max_passes));
  Put(buf, static_cast<int32_t>(r.svm.max_iterations));
  Put(buf, r.svm.seed);
  Put(buf, static_cast<uint8_t>(r.include_structural_features ? 1 : 0));
  Put(buf, static_cast<int32_t>(r.aggregation));
  Put(buf, static_cast<uint8_t>(r.user_level_instances ? 1 : 0));
  Put(buf, static_cast<int32_t>(r.verification));
  Put(buf, r.mean_verification_r);
  Put(buf, static_cast<int32_t>(r.false_addition_count));
  Put(buf, r.seed);

  // The slot of the retired index recall cap: always 0, so job
  // directories written while the cap existed still resume.
  Put(buf, int32_t{0});

  // Slice identity: a job computed over shard i of N holds candidates for
  // a DIFFERENT id space than shard j (or the whole universe), so slices
  // never interchange checkpoints.
  Put(buf, static_cast<int32_t>(config.shard_index));
  Put(buf, static_cast<int32_t>(config.shard_count));

  // Engine identity: blind/community scores differ from structural, so
  // their checkpoints must never interchange — with structural OR each
  // other. The structural engine appends nothing, keeping every job
  // directory written before --engine existed valid. engine_seed shapes
  // the community engine's label-propagation result, so it travels too.
  if (config.engine != EngineKind::kStructural) {
    Put(buf, static_cast<int32_t>(config.engine));
    Put(buf, config.engine_seed);
  }
  return Fnv1a(buf.data(), buf.size());
}

std::string EncodeJobManifest(const JobManifest& manifest) {
  std::string out = BeginFrame(kManifestMagic, kVersion);
  Put(out, manifest.anonymized_fingerprint);
  Put(out, manifest.auxiliary_fingerprint);
  Put(out, manifest.config_fingerprint);
  Put(out, manifest.num_users);
  Put(out, manifest.shard_size);
  EndFrame(out);
  return out;
}

StatusOr<JobManifest> DecodeJobManifest(const std::string& bytes,
                                        const std::string& path) {
  StatusOr<ByteReader> reader =
      OpenFrame(bytes, kManifestMagic, kVersion, "job manifest", path);
  if (!reader.ok()) return reader.status();
  JobManifest manifest;
  DEHEALTH_RETURN_IF_ERROR(reader->Read(&manifest.anonymized_fingerprint));
  DEHEALTH_RETURN_IF_ERROR(reader->Read(&manifest.auxiliary_fingerprint));
  DEHEALTH_RETURN_IF_ERROR(reader->Read(&manifest.config_fingerprint));
  DEHEALTH_RETURN_IF_ERROR(reader->Read(&manifest.num_users));
  DEHEALTH_RETURN_IF_ERROR(reader->Read(&manifest.shard_size));
  DEHEALTH_RETURN_IF_ERROR(reader->ExpectEnd());
  if (manifest.shard_size == 0) return reader->Fail("shard_size is zero");
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

  std::string out = BeginFrame(kShardMagic, kVersion);
  Put(out, job_fingerprint);
  Put(out, static_cast<uint8_t>(shard.phase));
  Put(out, shard.begin);
  Put(out, shard.end);
  if (shard.phase == JobShard::Phase::kTopK ||
      shard.phase == JobShard::Phase::kFilter) {
    for (const std::vector<int>& list : shard.candidates) {
      Put(out, static_cast<uint32_t>(list.size()));
      for (int v : list) Put(out, static_cast<int32_t>(v));
    }
  }
  if (shard.phase == JobShard::Phase::kRefined)
    for (size_t i = 0; i < span; ++i)
      Put(out, static_cast<int32_t>(shard.predictions[i]));
  if (shard.phase == JobShard::Phase::kRefined ||
      shard.phase == JobShard::Phase::kFilter)
    for (size_t i = 0; i < span; ++i)
      Put(out, static_cast<uint8_t>(shard.rejected[i] ? 1 : 0));
  EndFrame(out);
  return out;
}

StatusOr<JobShard> DecodeJobShard(const std::string& bytes,
                                  uint64_t job_fingerprint,
                                  JobShard::Phase expected_phase,
                                  uint32_t expected_begin,
                                  uint32_t expected_end,
                                  const std::string& path) {
  StatusOr<ByteReader> frame =
      OpenFrame(bytes, kShardMagic, kVersion, "job shard", path);
  if (!frame.ok()) return frame.status();
  ByteReader& reader = *frame;

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
  // The range now equals the caller's, so `span` is trusted for sizing.
  const size_t span = shard.end - shard.begin;

  if (expected_phase == JobShard::Phase::kTopK ||
      expected_phase == JobShard::Phase::kFilter) {
    shard.candidates.resize(span);
    for (std::vector<int>& list : shard.candidates) {
      uint32_t count = 0;
      DEHEALTH_RETURN_IF_ERROR(reader.ReadCount(sizeof(int32_t), &count));
      list.resize(count);
      for (int& v : list) {
        int32_t id = 0;
        DEHEALTH_RETURN_IF_ERROR(reader.Read(&id));
        v = id;
      }
    }
  }
  if (expected_phase == JobShard::Phase::kRefined) {
    shard.predictions.resize(span);
    for (int& p : shard.predictions) {
      int32_t id = 0;
      DEHEALTH_RETURN_IF_ERROR(reader.Read(&id));
      p = id;
    }
  }
  if (expected_phase == JobShard::Phase::kRefined ||
      expected_phase == JobShard::Phase::kFilter) {
    shard.rejected.resize(span);
    for (size_t i = 0; i < span; ++i) {
      uint8_t flag = 0;
      DEHEALTH_RETURN_IF_ERROR(reader.Read(&flag));
      if (flag > 1) return reader.Fail("rejected flag out of range");
      shard.rejected[i] = flag != 0;
    }
  }
  DEHEALTH_RETURN_IF_ERROR(reader.ExpectEnd());
  return shard;
}

}  // namespace dehealth
