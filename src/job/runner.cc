#include "job/runner.h"

#include <cstdio>
#include <filesystem>
#include <numeric>

#include "common/fault_injection.h"
#include "common/shutdown.h"
#include "index/candidate_index.h"
#include "index/pipeline.h"
#include "io/byte_codec.h"
#include "io/file_util.h"
#include "obs/standard_metrics.h"
#include "obs/trace.h"

namespace dehealth {

namespace {

constexpr char kManifestFilename[] = "MANIFEST.dhjb";

std::string ShardFilename(const char* prefix, uint32_t begin, uint32_t end) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s-%08u-%08u.dhsh", prefix, begin, end);
  return buf;
}

/// Quarantines a poisoned checkpoint (never deletes evidence) so the runner
/// can recompute a clean replacement. If the rename fails the file stays
/// put, and the replacement's atomic write overwrites it.
void QuarantineCheckpoint(const std::string& path, const Status& why) {
  obs::GetJobMetrics().quarantines->Increment();
  QuarantineFile(path, why);
}

Status CancelledAtShard(const char* phase, uint32_t begin, uint32_t end) {
  return Status::Cancelled(
      "attack job interrupted before the " + std::string(phase) + " shard [" +
      std::to_string(begin) + ", " + std::to_string(end) +
      "); all completed shards are durable — re-run with the same --job-dir "
      "to resume");
}

/// The [begin, end) user ranges the job is sharded into.
std::vector<std::pair<uint32_t, uint32_t>> ShardRanges(uint32_t num_users,
                                                       uint32_t shard_size) {
  std::vector<std::pair<uint32_t, uint32_t>> ranges;
  for (uint32_t begin = 0; begin < num_users; begin += shard_size)
    ranges.emplace_back(begin, std::min(begin + shard_size, num_users));
  return ranges;
}

}  // namespace

StatusOr<AttackJob> AttackJob::Open(const UdaGraph& anonymized,
                                    const UdaGraph& auxiliary,
                                    const DeHealthConfig& config) {
  if (config.job_dir.empty())
    return Status::InvalidArgument("AttackJob: config.job_dir is empty");
  if (config.job_shard_size < 1)
    return Status::InvalidArgument(
        "AttackJob: job_shard_size must be >= 1, got " +
        std::to_string(config.job_shard_size));
  if (config.selection == CandidateSelection::kGraphMatching)
    return Status::FailedPrecondition(
        "AttackJob: graph-matching selection is a global computation and "
        "cannot checkpoint per user; run without --job-dir or use direct "
        "selection");

  std::error_code ec;
  std::filesystem::create_directories(config.job_dir, ec);
  if (ec)
    return Status::Internal("AttackJob: cannot create job directory '" +
                            config.job_dir + "': " + ec.message());

  AttackJob job;
  job.config_ = config;
  job.dir_ = config.job_dir;
  job.manifest_.anonymized_fingerprint = FingerprintForIndex(anonymized);
  job.manifest_.auxiliary_fingerprint = FingerprintForIndex(auxiliary);
  job.manifest_.config_fingerprint = JobConfigFingerprint(config);
  job.manifest_.num_users = static_cast<uint32_t>(anonymized.num_users());
  job.manifest_.shard_size = static_cast<uint32_t>(config.job_shard_size);
  job.fingerprint_ = job.manifest_.JobFingerprint();

  const std::string manifest_path =
      (std::filesystem::path(job.dir_) / kManifestFilename).string();
  StatusOr<std::string> bytes = ReadFileToString(manifest_path);
  if (bytes.ok()) {
    StatusOr<JobManifest> stored = DecodeJobManifest(*bytes, manifest_path);
    if (stored.ok()) {
      // Fail closed on a real mismatch: resuming someone else's shards
      // would splice two different attacks into one output file.
      if (stored->JobFingerprint() != job.fingerprint_)
        return Status::FailedPrecondition(
            "AttackJob: job directory '" + job.dir_ +
            "' was created for different forums, config, or shard size; "
            "point --job-dir at a fresh directory (or delete this one) to "
            "start over");
      return job;  // valid manifest, same job: resume.
    }
    QuarantineCheckpoint(manifest_path, stored.status());
  } else if (bytes.status().code() != StatusCode::kNotFound) {
    return bytes.status();
  }

  DEHEALTH_RETURN_IF_ERROR(InjectFaultPoint("job.manifest_write"));
  DEHEALTH_RETURN_IF_ERROR(
      WriteStringToFileAtomic(EncodeJobManifest(job.manifest_),
                              manifest_path));
  return job;
}

StatusOr<JobShard> AttackJob::LoadShard(const std::string& filename,
                                        JobShard::Phase phase, uint32_t begin,
                                        uint32_t end, bool* loaded) {
  *loaded = false;
  const std::string path =
      (std::filesystem::path(dir_) / filename).string();
  StatusOr<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) {
    // Missing is the normal "not computed yet" case; any other read error
    // (I/O fault) is quarantine-worthy — the file exists but cannot be
    // trusted.
    if (bytes.status().code() != StatusCode::kNotFound)
      QuarantineCheckpoint(path, bytes.status());
    return JobShard{};
  }
  StatusOr<JobShard> shard =
      DecodeJobShard(*bytes, fingerprint_, phase, begin, end, path);
  if (!shard.ok()) {
    QuarantineCheckpoint(path, shard.status());
    return JobShard{};
  }
  *loaded = true;
  obs::GetJobMetrics().shards_loaded->Increment();
  return shard;
}

Status AttackJob::StoreShard(const JobShard& shard,
                             const std::string& filename) {
  DEHEALTH_RETURN_IF_ERROR(InjectFaultPoint("job.shard_write"));
  StatusOr<std::string> bytes = EncodeJobShard(shard, fingerprint_);
  if (!bytes.ok()) return bytes.status();
  return WriteStringToFileAtomic(
      *bytes, (std::filesystem::path(dir_) / filename).string());
}

StatusOr<DeHealthCandidates> AttackJob::SelectCandidates(
    const CandidateSource& scores, DeHealthCandidates* raw) {
  if (scores.num_anonymized() != static_cast<int>(manifest_.num_users))
    return Status::Internal(
        "AttackJob: score source disagrees with the manifest user count");

  DeHealthCandidates state;
  state.candidates.resize(manifest_.num_users);
  state.rejected.assign(manifest_.num_users, false);

  // Phase 1b, sharded: per-user Top-K is embarrassingly parallel AND
  // batch-deterministic (TopKForUsers answers absolute ids identically in
  // any batch), so any prefix of durable shards composes bitwise with
  // freshly computed ones.
  for (const auto& [begin, end] :
       ShardRanges(manifest_.num_users, manifest_.shard_size)) {
    const std::string filename = ShardFilename("topk", begin, end);
    bool loaded = false;
    StatusOr<JobShard> shard =
        LoadShard(filename, JobShard::Phase::kTopK, begin, end, &loaded);
    if (!shard.ok()) return shard.status();
    if (!loaded) {
      if (ProcessShutdownRequested())
        return CancelledAtShard("topk", begin, end);
      DEHEALTH_RETURN_IF_ERROR(InjectFaultPoint("job.phase1"));
      obs::GetJobMetrics().shards_computed->Increment();
      obs::Span shard_span("job", "topk_shard");
      shard_span.SetArg("users", static_cast<int64_t>(end - begin));
      std::vector<int> users(end - begin);
      std::iota(users.begin(), users.end(), static_cast<int>(begin));
      StatusOr<CandidateSets> sets =
          scores.TopKForUsers(users, config_.top_k, config_.num_threads);
      if (!sets.ok()) return sets.status();
      shard->phase = JobShard::Phase::kTopK;
      shard->begin = begin;
      shard->end = end;
      shard->candidates = std::move(sets).value();
      DEHEALTH_RETURN_IF_ERROR(StoreShard(*shard, filename));
    }
    for (uint32_t u = begin; u < end; ++u)
      state.candidates[u] = std::move(shard->candidates[u - begin]);
  }

  if (raw != nullptr) *raw = state;

  // Phase 1c: filtering thresholds are global (max/min over every
  // candidate score), so the verdict is one artifact over all users,
  // durable only once it is complete.
  if (config_.enable_filtering) {
    const std::string filename = "filter.dhsh";
    bool loaded = false;
    StatusOr<JobShard> shard = LoadShard(filename, JobShard::Phase::kFilter,
                                         0, manifest_.num_users, &loaded);
    if (!shard.ok()) return shard.status();
    if (!loaded) {
      if (ProcessShutdownRequested())
        return CancelledAtShard("filter", 0, manifest_.num_users);
      DEHEALTH_RETURN_IF_ERROR(InjectFaultPoint("job.filter"));
      obs::GetJobMetrics().shards_computed->Increment();
      obs::Span shard_span("job", "filter_shard");
      shard_span.SetArg("users",
                        static_cast<int64_t>(manifest_.num_users));
      StatusOr<FilterResult> filtered =
          FilterCandidates(scores, state.candidates, config_.filter);
      if (!filtered.ok()) return filtered.status();
      shard->phase = JobShard::Phase::kFilter;
      shard->begin = 0;
      shard->end = manifest_.num_users;
      shard->candidates = std::move(filtered->candidates);
      shard->rejected = std::move(filtered->rejected);
      DEHEALTH_RETURN_IF_ERROR(StoreShard(*shard, filename));
    }
    state.candidates = std::move(shard->candidates);
    state.rejected = std::move(shard->rejected);
  }
  return state;
}

StatusOr<RefinedDaResult> AttackJob::Refine(const UdaGraph& anonymized,
                                            const UdaGraph& auxiliary,
                                            const CandidateSource& scores,
                                            const DeHealthCandidates& state) {
  const DeHealth attack(config_);
  RefinedDaResult result;
  result.predictions.resize(manifest_.num_users);
  result.rejected.assign(manifest_.num_users, false);
  result.num_rejected = 0;

  for (const auto& [begin, end] :
       ShardRanges(manifest_.num_users, manifest_.shard_size)) {
    const std::string filename = ShardFilename("refined", begin, end);
    bool loaded = false;
    StatusOr<JobShard> shard =
        LoadShard(filename, JobShard::Phase::kRefined, begin, end, &loaded);
    if (!shard.ok()) return shard.status();
    if (!loaded) {
      if (ProcessShutdownRequested())
        return CancelledAtShard("refined", begin, end);
      DEHEALTH_RETURN_IF_ERROR(InjectFaultPoint("job.phase2"));
      obs::GetJobMetrics().shards_computed->Increment();
      obs::Span shard_span("job", "refined_shard");
      shard_span.SetArg("users", static_cast<int64_t>(end - begin));
      std::vector<int> users(end - begin);
      std::iota(users.begin(), users.end(), static_cast<int>(begin));
      // Each user's refined-DA problem is a pure function of (config, u)
      // with the ABSOLUTE id seeding its RNG stream, so batch answers are
      // bitwise-identical to the full run's entries.
      StatusOr<RefinedDaResult> batch =
          attack.RefineUsers(anonymized, auxiliary, scores, state, users);
      if (!batch.ok()) return batch.status();
      shard->phase = JobShard::Phase::kRefined;
      shard->begin = begin;
      shard->end = end;
      shard->predictions = std::move(batch->predictions);
      shard->rejected = std::move(batch->rejected);
      DEHEALTH_RETURN_IF_ERROR(StoreShard(*shard, filename));
    }
    for (uint32_t u = begin; u < end; ++u) {
      result.predictions[u] = shard->predictions[u - begin];
      result.rejected[u] = shard->rejected[u - begin];
      if (result.rejected[u]) ++result.num_rejected;
    }
  }
  return result;
}

StatusOr<DeHealthResult> RunDeHealthAttackJob(const UdaGraph& anonymized,
                                              const UdaGraph& auxiliary,
                                              const DeHealthConfig& config) {
  StatusOr<AttackJob> job = AttackJob::Open(anonymized, auxiliary, config);
  if (!job.ok()) return job.status();
  StatusOr<std::unique_ptr<AttackScoreSource>> scores =
      BuildAttackScoreSource(anonymized, auxiliary, config);
  if (!scores.ok()) return scores.status();

  StatusOr<DeHealthCandidates> state =
      job->SelectCandidates(*(*scores)->source);
  if (!state.ok()) return state.status();
  StatusOr<RefinedDaResult> refined =
      job->Refine(anonymized, auxiliary, *(*scores)->source, *state);
  if (!refined.ok()) return refined.status();

  DeHealthResult result;
  result.candidates = std::move(state->candidates);
  result.rejected = std::move(state->rejected);
  result.refined = std::move(refined).value();
  return result;
}

}  // namespace dehealth
