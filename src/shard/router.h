#ifndef DEHEALTH_SHARD_ROUTER_H_
#define DEHEALTH_SHARD_ROUTER_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/standard_metrics.h"
#include "serve/client.h"
#include "serve/handler.h"
#include "serve/protocol.h"
#include "shard/health.h"

namespace dehealth {

/// One downstream dehealth_serve instance, addressed host:port.
struct BackendAddress {
  std::string host;
  int port = 0;
};

/// Parses a replicated fleet spec: ',' separates shard groups, '|'
/// separates replicas within a group —
///   "a:1|b:1,c:1|d:1"  = 2 shards, 2 replicas each
///   "a:1,b:1"          = 2 shards, unreplicated (PR 7 spec, unchanged)
/// Every group must be non-empty; replica counts may differ per group (a
/// fleet mid-expansion is legal).
StatusOr<std::vector<std::vector<BackendAddress>>> ParseBackendGroups(
    const std::string& spec);

struct RouterOptions {
  /// Per-backend connect + round-trip retry (serve/client.h semantics).
  RetryPolicy retry;
  /// Fail-closed mode: any shard group with no answering replica makes
  /// the whole query Unavailable. Default is graceful degradation —
  /// answers merged from the reachable shards go out as kPartial frames.
  bool require_all_shards = false;
  /// Streaming ingestion: by default Connect refuses a fleet whose
  /// backends report different epoch_seq values — mixed epochs mean the
  /// backends sealed different segment chains and serve different logical
  /// forums (the universe-fingerprint check would usually also fire, but
  /// epoch skew is the actionable diagnosis). --allow-epoch-skew downgrades
  /// the refusal to a stderr warning for mid-rollout fleets.
  bool allow_epoch_skew = false;
  /// Hedged reads: when > 0 and a scatter leg's primary replica has not
  /// answered within this many ms, the leg fires the same request at a
  /// healthy sibling replica and takes whichever answer lands first (the
  /// loser is cancelled). 0 disables hedging. Replicas are verified
  /// bitwise-identical at connect, so the two answers are interchangeable
  /// and merged output stays deterministic.
  int hedge_ms = 0;
  /// Ejection threshold + probe-and-readmit schedule (shard/health.h).
  HealthPolicy health;
  /// Registry the shard scatter/merge metrics record into; nullptr binds
  /// Registry::Global().
  obs::Registry* registry = nullptr;
};

/// The scatter-gather head of a sharded serving fleet: a QueryHandler that
/// answers Top-K by fanning the query out to N shard groups of
/// dehealth_serve backends (each group holding one contiguous slice of the
/// auxiliary universe, its replicas bitwise-identical copies) and merging
/// the per-shard scored heaps with MergeScoredTopK — bitwise-identical to
/// one unsharded server (see DESIGN.md "Sharding"). Plugged into
/// QueryServer, it speaks plain DHQP upstream, so dehealth_query and
/// QueryClient work against a router unchanged.
///
/// Connect() is fail-closed on topology: it requires every backend
/// reachable, the groups' ShardInfo answers to form exactly one canonical
/// partition (ComputeShardRanges) of one universe — same fingerprint, same
/// anonymized side, same default K, shard indices covering 0..N-1 — and
/// the replicas within each group to agree on all of it (a replica serving
/// a different epoch than its siblings is a rollout mid-flight; only
/// --allow-epoch-skew serves through that).
///
/// After connect, each scatter leg walks its group's replicas in
/// health-tracked round-robin order and fails over to a sibling before the
/// gather ever sees the leg as down; a replica that keeps failing is
/// ejected and re-admitted by jittered-backoff kShardInfo probes. Only
/// when every replica of a group is unreachable does the answer degrade
/// per require_all_shards.
///
/// Refine/Filtered are refused (Unimplemented): both phases need
/// universe-global state no slice holds. Route those to an unsharded
/// server.
class RouterHandler final : public QueryHandler {
 public:
  /// Connects to every backend and validates the fleet topology.
  static StatusOr<std::unique_ptr<RouterHandler>> Connect(
      const std::vector<std::vector<BackendAddress>>& groups,
      RouterOptions options);

  /// Unreplicated convenience overload: each backend is its own group.
  static StatusOr<std::unique_ptr<RouterHandler>> Connect(
      const std::vector<BackendAddress>& backends, RouterOptions options);

  int num_anonymized() const override { return num_anonymized_; }
  int default_top_k() const override { return default_top_k_; }

  StatusOr<TopKAnswer> TopK(const std::vector<int>& users,
                            int k) const override;
  StatusOr<ScoredTopKAnswer> TopKScored(const std::vector<int>& users,
                                        int k) const override;
  StatusOr<RefinedAnswer> Refine(const std::vector<int>& users) const override;
  StatusOr<FilteredAnswer> Filtered(
      const std::vector<int>& users) const override;

  /// The merged universe: the router presents itself as shard 0 of 1.
  ShardInfoAnswer ShardInfo() const override;

  /// Forwarded kMetrics scrape: connects to every backend (fresh admin
  /// connections — the scatter clients belong to the executor thread and
  /// this runs on reader threads), pulls its Prometheus render, and
  /// re-exports the `dehealth_ingest_*` lines labeled {backend="g.r"}
  /// (shard group g, replica r), plus per-backend epoch/staged-segment
  /// gauges in the router's own registry. An unreachable backend becomes a
  /// comment line, never an error — a scrape must not fail because one
  /// replica is mid-restart.
  std::string ForwardedMetrics() const override;

  int num_groups() const { return static_cast<int>(groups_.size()); }
  int group_size(int group) const {
    return static_cast<int>(groups_[static_cast<size_t>(group)].size());
  }
  /// Total backends across every group.
  int num_backends() const;
  uint64_t universe_size() const { return universe_size_; }
  uint64_t epoch_seq() const { return epoch_seq_; }

  /// Whether (group, replica) is currently admitted by the health tracker
  /// (exposed for tests and the --print-topology banner).
  bool replica_healthy(int group, int replica) const {
    return health_->healthy(group, replica);
  }

 private:
  struct Backend {
    BackendAddress address;
    /// Refreshed by a successful probe (const query path, executor
    /// thread only).
    mutable ShardInfoAnswer info;
    /// Mutated by const query methods (round-trips); safe because queries
    /// run on the server's single executor thread and each ParallelFor
    /// scatter task touches exactly one group's backends. The hedge helper
    /// thread (when hedging) owns the PRIMARY replica's client for the
    /// duration of the leg while the task thread drives the sibling's.
    mutable QueryClient client;
    mutable obs::Histogram* latency = nullptr;  // per-backend, router registry
    mutable obs::Gauge* epoch_seq = nullptr;
    mutable obs::Gauge* staged_segments = nullptr;
  };

  RouterHandler(std::vector<std::vector<Backend>> groups,
                RouterOptions options);

  /// Probes every ejected replica whose backoff has elapsed (fresh
  /// fail-fast kShardInfo) and re-admits the ones that answer with a
  /// ShardInfo matching the fleet. Runs at the top of each scatter, on the
  /// executor thread.
  void ProbeEjectedReplicas() const;

  /// One scatter leg: walks group `g`'s replicas in RouteOrder, hedging
  /// the first attempt when configured, failing over on transient errors.
  StatusOr<ScoredTopKAnswer> ScatterLeg(int g, const std::vector<int>& users,
                                        int k) const;

  /// The request against exactly one replica, hedged against `sibling`
  /// when sibling >= 0 and options_.hedge_ms > 0.
  StatusOr<ScoredTopKAnswer> TimedLeg(int g, int r,
                                      const std::vector<int>& users,
                                      int k) const;
  StatusOr<ScoredTopKAnswer> HedgedLeg(int g, int primary, int sibling,
                                       const std::vector<int>& users,
                                       int k) const;

  /// Health-tracker recording + the readmission/ejection counters and the
  /// healthy-backends gauge, in one place.
  void NoteSuccess(int g, int r) const;
  void NoteFailure(int g, int r) const;

  /// Groups ordered by shard_index == position (validated by Connect).
  std::vector<std::vector<Backend>> groups_;
  RouterOptions options_;
  obs::ShardMetrics metrics_;
  obs::ReplicaMetrics replica_metrics_;
  std::unique_ptr<HealthTracker> health_;
  /// Serializes ForwardedMetrics scrapes (reader threads).
  mutable std::mutex scrape_mutex_;
  int num_anonymized_ = 0;
  int default_top_k_ = 0;
  uint64_t universe_size_ = 0;
  uint64_t universe_fingerprint_ = 0;
  /// The fleet's epoch at connect time (backends agree, or
  /// allow_epoch_skew accepted the max with a warning).
  uint64_t epoch_seq_ = 0;
};

}  // namespace dehealth

#endif  // DEHEALTH_SHARD_ROUTER_H_
