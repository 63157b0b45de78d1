#ifndef DEHEALTH_INGEST_EPOCH_H_
#define DEHEALTH_INGEST_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/de_health.h"
#include "core/uda_graph.h"
#include "datagen/corpus.h"
#include "ingest/state.h"
#include "serve/engine.h"
#include "serve/handler.h"

namespace dehealth {
namespace ingest {

/// When dehealth_serve --ingest seals a new epoch on its own, without an
/// operator's kSealEpoch. Either trigger set to 0 is off (the default:
/// fully manual). The clock is injectable so tests drive the age trigger
/// by hand; the default reads std::chrono::steady_clock.
struct AutoSealPolicy {
  /// Seal once this many staged POSTS accumulate (across segments),
  /// checked inside LoadSegment — the segment that crosses the threshold
  /// is sealed into the new epoch before its response goes out.
  int posts_threshold = 0;
  /// Seal once the OLDEST staged segment is this many seconds old,
  /// checked by MaybeAutoSeal() (the serving loop ticks it).
  int secs_threshold = 0;
  std::function<int64_t()> now_ms;
};

/// The zero-downtime epoch layer of dehealth_serve --ingest: a
/// QueryHandler that delegates every query to the CURRENT epoch's
/// QueryEngine, held behind a shared_ptr that admin operations swap
/// RCU-style. Queries copy the pointer (one mutex-guarded load) and run to
/// completion on whatever epoch they started on — a kSealEpoch rebuild
/// happening concurrently never blocks them and never changes their
/// answer; the old engine dies when its last in-flight query drops the
/// reference.
///
/// Admin surface (called from connection reader threads, serialized by an
/// admin mutex so segment chains apply in order):
///   LoadSegment: read + validate a DHSG file, apply it to the STAGING
///     state (the serving epoch is untouched — answers stay bitwise-stable
///     until seal). A segment that fails the checksum/decode is
///     quarantined to `<path>.quarantined`, matching the PR 4 contract.
///   SealEpoch: rebuild a QueryEngine from the staging state (same
///     DeHealthConfig as boot, minus job_dir/index_snapshot_path — an
///     epoch rebuild must neither resume from nor clobber the base run's
///     artifacts) and swap it in; epoch_seq increments and
///     staged-since-seal drops to 0.
///
/// Shard-aware: in slice mode the engine still consumes the FULL auxiliary
/// universe (BuildAttackScoreSource slices internally), so every backend
/// applies the same universal segments; a segment stamped for a specific
/// shard is accepted only by that slice. The universe fingerprint answered
/// in ShardInfo changes at each seal, which is how the router detects (and
/// refuses) mixed-epoch fleets.
class EpochHandler : public QueryHandler {
 public:
  /// Builds the boot epoch: UDA graph of `auxiliary_dataset`, then a
  /// QueryEngine with `config` verbatim (job_dir warm start and index
  /// snapshots behave exactly as a non-ingest server). The anonymized
  /// graph and the config are retained for seal-time rebuilds.
  /// `config.num_threads` also sets the staging state's extraction threads
  /// (boot, every segment apply and its rollback).
  static StatusOr<std::unique_ptr<EpochHandler>> Create(
      UdaGraph anonymized, ForumDataset auxiliary_dataset,
      DeHealthConfig config);

  /// Installs the auto-seal policy (call before serving starts; not
  /// thread-safe against in-flight admin ops).
  void ConfigureAutoSeal(AutoSealPolicy policy);

  /// Age-triggered auto-seal tick: seals iff policy.secs_threshold > 0,
  /// something is staged, and the oldest staged segment's age crossed the
  /// threshold. Returns true exactly when this call sealed. Safe to call
  /// from the serving loop at any cadence — it takes the admin mutex, so
  /// it serializes with (and never double-seals against) operator admin
  /// ops. A failed seal is returned AND leaves the previous epoch
  /// serving, exactly like a failed kSealEpoch.
  StatusOr<bool> MaybeAutoSeal() const;

  // ---- admin (reader threads, serialized) ----
  Status LoadSegment(const std::string& segment_path) const override;
  Status SealEpoch() const override;

  // ---- queries (delegate to the current epoch) ----
  int num_anonymized() const override;
  int default_top_k() const override;
  StatusOr<TopKAnswer> TopK(const std::vector<int>& users,
                            int k) const override;
  StatusOr<ScoredTopKAnswer> TopKScored(const std::vector<int>& users,
                                        int k) const override;
  StatusOr<RefinedAnswer> Refine(const std::vector<int>& users) const override;
  StatusOr<FilteredAnswer> Filtered(
      const std::vector<int>& users) const override;
  ShardInfoAnswer ShardInfo() const override;

  uint64_t epoch_seq() const { return epoch_seq_.load(); }
  uint64_t staged_segments() const { return staged_segments_.load(); }

 private:
  EpochHandler(UdaGraph anonymized, DeHealthConfig config);

  /// The current epoch's engine (shared_ptr copy under a short lock).
  std::shared_ptr<const QueryEngine> Engine() const;

  /// SealEpoch's body; caller holds admin_mutex_.
  Status SealEpochLocked() const;
  int64_t NowMs() const;

  UdaGraph anonymized_;      // pristine copy for every rebuild
  DeHealthConfig config_;    // boot config; rebuilds drop job/index paths

  /// Serializes LoadSegment/SealEpoch; never held while answering queries.
  mutable std::mutex admin_mutex_;
  /// The staging state segments accumulate into (guarded by admin_mutex_).
  mutable IngestState staging_;

  /// Guards the epoch pointer swap; queries hold it only long enough to
  /// copy the shared_ptr.
  mutable std::mutex epoch_mutex_;
  mutable std::shared_ptr<const QueryEngine> current_;

  mutable std::atomic<uint64_t> epoch_seq_{0};
  mutable std::atomic<uint64_t> staged_segments_{0};

  AutoSealPolicy auto_seal_;
  /// Posts applied since the last seal and the clock reading when the
  /// first of them landed (guarded by admin_mutex_).
  mutable uint64_t staged_posts_ = 0;
  mutable int64_t first_staged_ms_ = 0;
};

}  // namespace ingest
}  // namespace dehealth

#endif  // DEHEALTH_INGEST_EPOCH_H_
