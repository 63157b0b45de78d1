#ifndef DEHEALTH_JOB_MANIFEST_H_
#define DEHEALTH_JOB_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/de_health.h"
#include "core/top_k.h"

namespace dehealth {

/// On-disk formats of the crash-safe attack job (src/job/runner.h).
///
/// A job directory holds one DHJB manifest binding the job to its inputs,
/// plus DHSH result shards, all written with WriteStringToFileAtomic and
/// framed exactly like the DHIX index snapshot and the DHQP wire protocol:
///
///   magic (4 bytes) | u32 version | payload | u64 FNV-1a(payload)
///
/// The manifest payload fingerprints the forum pair and the semantic
/// attack config; every shard payload embeds the manifest's job
/// fingerprint, so a shard can never be replayed into a job it does not
/// belong to (a stale directory fails closed with FailedPrecondition, a
/// corrupt shard is detected by checksum and recomputed).

/// Identity of an attack job: what the results are a pure function of.
/// `config_fingerprint` covers only the semantic fields of DeHealthConfig —
/// num_threads, index_snapshot_path, job_dir and job_shard_size are
/// excluded because results are bitwise-independent of them (the whole
/// point of resume: a job interrupted at 8 threads may finish at 1).
struct JobManifest {
  uint64_t anonymized_fingerprint = 0;
  uint64_t auxiliary_fingerprint = 0;
  uint64_t config_fingerprint = 0;
  uint32_t num_users = 0;   // |Δ1|: anonymized users the job answers
  uint32_t shard_size = 1;  // users per durable shard

  /// FNV-1a mix of all five fields — the binding value every shard embeds.
  uint64_t JobFingerprint() const;
};

/// Fingerprint of the semantic (result-shaping) DeHealthConfig fields.
/// Deliberately identical for dense, indexed and in-process sharded runs —
/// their results are bitwise-identical, so their checkpoints are
/// interchangeable.
uint64_t JobConfigFingerprint(const DeHealthConfig& config);

std::string EncodeJobManifest(const JobManifest& manifest);

/// InvalidArgument on malformed/corrupt bytes ("job manifest 'path'
/// (byte N): what"), Unimplemented on a future format version.
StatusOr<JobManifest> DecodeJobManifest(const std::string& bytes,
                                        const std::string& path = "");

/// One durable unit of attack work. Which fields are meaningful depends on
/// the phase:
///   kTopK    candidates[i] for user begin+i       (phase 1b, sharded)
///   kFilter  candidates + rejected for ALL users  (phase 1c, one global
///            artifact: thresholds are global, so it cannot shard)
///   kRefined predictions[i] + rejected[i] for user begin+i (phase 2,
///            sharded)
struct JobShard {
  enum class Phase : uint8_t { kTopK = 1, kRefined = 2, kFilter = 3 };

  Phase phase = Phase::kTopK;
  uint32_t begin = 0;  // first user covered (inclusive)
  uint32_t end = 0;    // one past the last user covered
  CandidateSets candidates;
  std::vector<int> predictions;
  std::vector<bool> rejected;
};

/// `shard.begin/end` must satisfy begin <= end; list sizes must match the
/// phase contract above (checked, Internal on violation — encoding an
/// inconsistent shard is a programming error, not an input error).
StatusOr<std::string> EncodeJobShard(const JobShard& shard,
                                     uint64_t job_fingerprint);

/// Decodes and validates a shard: framing + checksum, the embedded job
/// fingerprint against `job_fingerprint`, and phase/range against
/// `expected_phase`/`expected_begin`/`expected_end`. Any mismatch is
/// InvalidArgument ("job shard 'path' (byte N): what") — the runner
/// quarantines such a shard and recomputes it.
StatusOr<JobShard> DecodeJobShard(const std::string& bytes,
                                  uint64_t job_fingerprint,
                                  JobShard::Phase expected_phase,
                                  uint32_t expected_begin,
                                  uint32_t expected_end,
                                  const std::string& path = "");

}  // namespace dehealth

#endif  // DEHEALTH_JOB_MANIFEST_H_
