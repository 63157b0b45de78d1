#ifndef DEHEALTH_JOB_RUNNER_H_
#define DEHEALTH_JOB_RUNNER_H_

#include <string>
#include <vector>

#include "core/de_health.h"
#include "core/uda_graph.h"
#include "job/manifest.h"

namespace dehealth {

/// Crash-safe checkpoint/resume for the De-Health attack.
///
/// The per-user attack loop is sharded into groups of
/// config.job_shard_size users; each completed shard is committed to
/// config.job_dir as an atomically written, checksummed DHSH file before
/// the next one starts, so the job can die at ANY point — SIGKILL, power
/// loss, injected crash — and lose at most one shard of work. A re-run
/// with the same forums + config validates the DHJB manifest, loads every
/// durable shard and computes only what is missing; because every batch
/// entry point is bitwise-deterministic (TopKForUsers /
/// RunRefinedDaForUsers answer absolute user ids identically in any batch
/// on any thread count), the resumed final output is bitwise-identical to
/// an uninterrupted run.
///
/// Failure handling:
///   - manifest mismatch (different forums or semantic config) →
///     FailedPrecondition, nothing touched: a job directory never silently
///     mixes results from two jobs;
///   - corrupt/truncated manifest or shard → quarantined (renamed to
///     `<name>.quarantined`) with a warning and recomputed;
///   - SIGTERM/SIGINT (via common/shutdown.h) → the current shard
///     finishes, the job returns Status::Cancelled, and a re-run resumes
///     from the durable prefix.
class AttackJob {
 public:
  /// Opens (creating if needed) the job directory named by config.job_dir,
  /// writing or validating the manifest. InvalidArgument when job_dir is
  /// empty or job_shard_size < 1; FailedPrecondition on a manifest
  /// mismatch or graph-matching selection (inherently global — it cannot
  /// checkpoint per user, so the job runner refuses rather than silently
  /// degrading).
  static StatusOr<AttackJob> Open(const UdaGraph& anonymized,
                                  const UdaGraph& auxiliary,
                                  const DeHealthConfig& config);

  /// Phase 1 (Top-K selection + optional filtering), load-or-compute.
  /// Top-K is sharded; the filter verdict is one global artifact
  /// (thresholds are global max/min, so it cannot shard) computed after
  /// all Top-K shards are durable, from the score range the computed
  /// shards' Top-K pass folded. Only while the verdict is not yet durable
  /// are the rows of loaded Top-K shards scanned again for their range.
  /// Returns the same DeHealthCandidates a DeHealth::SelectCandidates
  /// call would. When `raw` is non-null it receives the UNFILTERED
  /// phase-1b state (what SelectCandidates returns with filtering
  /// disabled) — the serving engine keeps both resident.
  StatusOr<DeHealthCandidates> SelectCandidates(const CandidateSource& scores,
                                                DeHealthCandidates* raw =
                                                    nullptr);

  /// Phase 2 (refined DA), load-or-compute, sharded. `state` must be the
  /// result of SelectCandidates. Returns the same RefinedDaResult a full
  /// run would.
  StatusOr<RefinedDaResult> Refine(const UdaGraph& anonymized,
                                   const UdaGraph& auxiliary,
                                   const CandidateSource& scores,
                                   const DeHealthCandidates& state);

  const JobManifest& manifest() const { return manifest_; }
  const std::string& dir() const { return dir_; }

 private:
  AttackJob() = default;

  /// Loads a shard from `filename` if present and valid; quarantines a
  /// poisoned one. *loaded is false when the shard must be (re)computed.
  StatusOr<JobShard> LoadShard(const std::string& filename,
                               JobShard::Phase phase, uint32_t begin,
                               uint32_t end, bool* loaded);

  /// Atomically commits a shard under `filename`.
  Status StoreShard(const JobShard& shard, const std::string& filename);

  DeHealthConfig config_;
  std::string dir_;
  JobManifest manifest_;
  uint64_t fingerprint_ = 0;  // manifest_.JobFingerprint(), cached
};

/// The checkpointed equivalent of RunDeHealthAttack: opens the job at
/// config.job_dir, builds the score source exactly as RunDeHealthAttack
/// does, and runs both phases through the durable shard store.
/// DeHealthResult::similarity is always left empty. Cancelled when a
/// shutdown signal interrupted the job after a durable checkpoint — re-run
/// to resume.
StatusOr<DeHealthResult> RunDeHealthAttackJob(const UdaGraph& anonymized,
                                              const UdaGraph& auxiliary,
                                              const DeHealthConfig& config);

}  // namespace dehealth

#endif  // DEHEALTH_JOB_RUNNER_H_
