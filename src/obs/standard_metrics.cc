#include "obs/standard_metrics.h"

namespace dehealth::obs {

// ---- core ----
const MetricDef kCoreUdaBuilds = {
    "dehealth_core_uda_builds_total", MetricType::kCounter, "1", "core",
    "UDA graphs built from a forum dataset"};
const MetricDef kCoreUdaPosts = {
    "dehealth_core_uda_posts_total", MetricType::kCounter, "posts", "core",
    "Posts ingested across all UDA graph builds"};
const MetricDef kCoreSimilarityMatrices = {
    "dehealth_core_similarity_matrices_total", MetricType::kCounter, "1",
    "core", "Phase-1a structural similarity matrices computed"};
const MetricDef kCoreSimilarityRows = {
    "dehealth_core_similarity_rows_total", MetricType::kCounter, "rows",
    "core", "Anonymized-user rows scored during similarity computation"};
const MetricDef kCoreTopKDenseRows = {
    "dehealth_core_topk_dense_rows_total", MetricType::kCounter, "rows",
    "core", "Rows ranked by a whole-matrix Top-K pass over a dense matrix"};
const MetricDef kCoreFilterRuns = {
    "dehealth_core_filter_runs_total", MetricType::kCounter, "1", "core",
    "Phase-1c candidate filtering passes executed"};
const MetricDef kCoreFilterRejected = {
    "dehealth_core_filter_rejected_total", MetricType::kCounter, "candidates",
    "core", "Candidates removed by phase-1c filtering"};
const MetricDef kCoreRefinedUsers = {
    "dehealth_core_refined_users_total", MetricType::kCounter, "users",
    "core", "Anonymized users processed by phase-2 refined DA"};
const MetricDef kCoreSimdKernel = {
    "dehealth_core_simd_kernel", MetricType::kGauge, "1", "core",
    "Score-kernel SIMD tier last dispatched (1 = scalar, 3 = avx2; 2 was "
    "the retired sse2 tier)"};
const MetricDef kCoreScoreBlockSize = {
    "dehealth_core_score_block_size", MetricType::kHistogram, "candidates",
    "core", "Candidates per block handed to the batched score kernel"};

// ---- index ----
const MetricDef kIndexTopKQueries = {
    "dehealth_index_topk_queries_total", MetricType::kCounter, "1", "index",
    "Top-K rows answered by the candidate index"};
const MetricDef kIndexExactEvals = {
    "dehealth_index_exact_evals_total", MetricType::kCounter, "candidates",
    "index", "Candidates exactly scored by indexed Top-K (n2 per row)"};
const MetricDef kIndexBoundPruned = {
    "dehealth_index_bound_pruned_total", MetricType::kCounter, "candidates",
    "index", "Always 0: indexed Top-K scores every candidate"};
const MetricDef kIndexSnapshotLoads = {
    "dehealth_index_snapshot_loads_total", MetricType::kCounter, "1", "index",
    "DHIX snapshots loaded from disk instead of rebuilt"};
const MetricDef kIndexSnapshotRebuilds = {
    "dehealth_index_snapshot_rebuilds_total", MetricType::kCounter, "1",
    "index", "Candidate indexes rebuilt (missing or stale snapshot)"};
const MetricDef kIndexDenseScans = {
    "dehealth_index_dense_scans_total", MetricType::kCounter, "1", "index",
    "Top-K rows answered by a full row scan (always equals "
    "dehealth_index_topk_queries_total)"};

// ---- shard ----
const MetricDef kShardScatterRpcs = {
    "dehealth_shard_scatter_rpcs_total", MetricType::kCounter, "1", "shard",
    "Per-shard sub-queries fanned out by scatter-gather"};
const MetricDef kShardScatterFailures = {
    "dehealth_shard_scatter_failures_total", MetricType::kCounter, "1",
    "shard", "Per-shard sub-queries that failed (backend down or errored)"};
const MetricDef kShardPartialAnswers = {
    "dehealth_shard_partial_answers_total", MetricType::kCounter, "1",
    "shard", "Merged answers served from a subset of shards (degraded)"};
const MetricDef kShardMergeMicros = {
    "dehealth_shard_merge_micros", MetricType::kHistogram, "us", "shard",
    "Time to merge per-shard Top-K heaps into the global answer"};
const MetricDef kShardBackendLatency = {
    "dehealth_shard_backend_latency_micros", MetricType::kHistogram, "us",
    "shard", "Per-backend round-trip latency across all shards"};
const MetricDef kShardSnapshotQuarantines = {
    "dehealth_shard_snapshot_quarantines_total", MetricType::kCounter,
    "files", "shard",
    "Corrupt DHIX snapshots quarantined and rebuilt, whole index (shard 0 "
    "of 1) or slice"};

// ---- replica ----
const MetricDef kReplicaFailovers = {
    "dehealth_replica_failovers_total", MetricType::kCounter, "1", "replica",
    "Scatter legs answered by a sibling replica after the first choice "
    "failed (each one is a backend loss made invisible to the client)"};
const MetricDef kReplicaEjections = {
    "dehealth_replica_ejections_total", MetricType::kCounter, "1", "replica",
    "Backends ejected from routing after consecutive failed exchanges"};
const MetricDef kReplicaReadmissions = {
    "dehealth_replica_readmissions_total", MetricType::kCounter, "1",
    "replica", "Ejected backends readmitted after a validated probe"};
const MetricDef kReplicaProbes = {
    "dehealth_replica_probes_total", MetricType::kCounter, "1", "replica",
    "Health probes (queue-bypassing kShardInfo) sent to ejected backends"};
const MetricDef kReplicaProbeFailures = {
    "dehealth_replica_probe_failures_total", MetricType::kCounter, "1",
    "replica", "Health probes that failed or answered a mismatched "
    "identity (the probe backoff grows after each)"};
const MetricDef kReplicaHedges = {
    "dehealth_replica_hedges_total", MetricType::kCounter, "1", "replica",
    "Hedge RPCs fired at a sibling because the primary leg outlived "
    "--hedge-ms"};
const MetricDef kReplicaHedgeWins = {
    "dehealth_replica_hedge_wins_total", MetricType::kCounter, "1",
    "replica", "Hedge RPCs whose answer was used (the primary was "
    "cancelled or lost the race)"};
const MetricDef kReplicaHealthyBackends = {
    "dehealth_replica_healthy_backends", MetricType::kGauge, "backends",
    "replica", "Backends currently routable (fleet size minus ejected)"};
const MetricDef kReplicaRolloutSeals = {
    "dehealth_replica_rollout_seals_total", MetricType::kCounter, "1",
    "replica", "Per-backend epoch seals driven by the rolling fleet-wide "
    "ingestion driver"};

// ---- engines ----
const MetricDef kEngineMatrixBuilds = {
    "dehealth_engine_matrix_builds_total", MetricType::kCounter, "1",
    "engines", "Non-structural engine score matrices built "
    "(--engine=blind|community)"};
const MetricDef kEngineActive = {
    "dehealth_engine_active", MetricType::kGauge, "1", "engines",
    "Attack engine that last built a matrix (0=structural, 1=blind, "
    "2=community)"};
const MetricDef kEngineBlindRounds = {
    "dehealth_engine_blind_rounds_total", MetricType::kCounter, "rounds",
    "engines", "Blind-engine similarity-propagation rounds executed"};
const MetricDef kEngineCommunityMatched = {
    "dehealth_engine_community_matched_total", MetricType::kCounter,
    "communities", "engines",
    "Community pairs matched one-to-one by the community engine"};

// ---- job ----
const MetricDef kJobShardsLoaded = {
    "dehealth_job_shards_loaded_total", MetricType::kCounter, "shards", "job",
    "Job shards satisfied from checkpoint files on resume"};
const MetricDef kJobShardsComputed = {
    "dehealth_job_shards_computed_total", MetricType::kCounter, "shards",
    "job", "Job shards computed (not resumable from checkpoint)"};
const MetricDef kJobQuarantines = {
    "dehealth_job_quarantines_total", MetricType::kCounter, "files", "job",
    "Corrupt checkpoint files quarantined during resume"};

// ---- ingest ----
const MetricDef kIngestSegmentsLoaded = {
    "dehealth_ingest_segments_loaded_total", MetricType::kCounter, "1",
    "ingest", "DHSG delta segments staged into the pending epoch"};
const MetricDef kIngestPostsApplied = {
    "dehealth_ingest_posts_applied_total", MetricType::kCounter, "posts",
    "ingest", "Posts applied incrementally from delta segments"};
const MetricDef kIngestEpochSeals = {
    "dehealth_ingest_epoch_seals_total", MetricType::kCounter, "1", "ingest",
    "Epoch seals: staged state rebuilt into a serving engine and swapped"};
const MetricDef kIngestEpochSeq = {
    "dehealth_ingest_epoch_seq", MetricType::kGauge, "1", "ingest",
    "Current serving epoch sequence number (0 = boot epoch)"};
const MetricDef kIngestStagedSegments = {
    "dehealth_ingest_staged_segments", MetricType::kGauge, "segments",
    "ingest", "Delta segments staged but not yet sealed into an epoch"};
const MetricDef kIngestEpochBuildMicros = {
    "dehealth_ingest_epoch_build_micros", MetricType::kHistogram, "us",
    "ingest", "Time to rebuild the query engine at an epoch seal"};
const MetricDef kIngestQuarantines = {
    "dehealth_ingest_quarantines_total", MetricType::kCounter, "files",
    "ingest", "Corrupt DHSG segment files quarantined"};
const MetricDef kIngestCompactions = {
    "dehealth_ingest_compactions_total", MetricType::kCounter, "1", "ingest",
    "Segment chains merged by LSM-style compaction"};

// ---- serve ----
const MetricDef kServeRequests = {
    "dehealth_serve_requests_total", MetricType::kCounter, "1", "serve",
    "DHQP requests admitted to the queue"};
const MetricDef kServeQueries = {
    "dehealth_serve_queries_total", MetricType::kCounter, "users", "serve",
    "Per-user queries executed across all batches"};
const MetricDef kServeBatches = {
    "dehealth_serve_batches_total", MetricType::kCounter, "1", "serve",
    "Batches executed by the engine"};
const MetricDef kServeBatchSizeMax = {
    "dehealth_serve_batch_size_max", MetricType::kGauge, "requests", "serve",
    "Largest batch executed so far"};
const MetricDef kServeOverloaded = {
    "dehealth_serve_overloaded_total", MetricType::kCounter, "1", "serve",
    "Requests rejected OVERLOADED (queue full)"};
const MetricDef kServeDeadlineExpired = {
    "dehealth_serve_deadline_expired_total", MetricType::kCounter, "1",
    "serve", "Requests expired TIMEOUT before execution"};
const MetricDef kServeQueueDepth = {
    "dehealth_serve_queue_depth", MetricType::kGauge, "requests", "serve",
    "Requests currently waiting in the queue"};
const MetricDef kServeLatency = {
    "dehealth_serve_latency_micros", MetricType::kHistogram, "us", "serve",
    "End-to-end request latency (admission to fulfillment)"};
const MetricDef kServeQueueWait = {
    "dehealth_serve_queue_wait_micros", MetricType::kHistogram, "us", "serve",
    "Time a request waited in the queue before batching"};
const MetricDef kServeEngineTime = {
    "dehealth_serve_engine_micros", MetricType::kHistogram, "us", "serve",
    "Engine execution time per batch"};
const MetricDef kServeBatchSize = {
    "dehealth_serve_batch_size", MetricType::kHistogram, "requests", "serve",
    "Distribution of executed batch sizes"};

const std::vector<const MetricDef*>& AllMetricDefs() {
  static const std::vector<const MetricDef*>* all =
      new std::vector<const MetricDef*>{
          &kCoreUdaBuilds,       &kCoreUdaPosts,
          &kCoreSimilarityMatrices, &kCoreSimilarityRows,
          &kCoreTopKDenseRows,   &kCoreFilterRuns,
          &kCoreFilterRejected,  &kCoreRefinedUsers,
          &kCoreSimdKernel,      &kCoreScoreBlockSize,
          &kIndexTopKQueries,    &kIndexExactEvals,
          &kIndexBoundPruned,    &kIndexSnapshotLoads,
          &kIndexSnapshotRebuilds, &kIndexDenseScans,
          &kShardScatterRpcs,
          &kShardScatterFailures, &kShardPartialAnswers,
          &kShardMergeMicros,    &kShardBackendLatency,
          &kShardSnapshotQuarantines,
          &kReplicaFailovers,    &kReplicaEjections,
          &kReplicaReadmissions, &kReplicaProbes,
          &kReplicaProbeFailures, &kReplicaHedges,
          &kReplicaHedgeWins,    &kReplicaHealthyBackends,
          &kReplicaRolloutSeals,
          &kEngineMatrixBuilds,  &kEngineActive,
          &kEngineBlindRounds,   &kEngineCommunityMatched,
          &kJobShardsLoaded,     &kJobShardsComputed,
          &kJobQuarantines,      &kIngestSegmentsLoaded,
          &kIngestPostsApplied,  &kIngestEpochSeals,
          &kIngestEpochSeq,      &kIngestStagedSegments,
          &kIngestEpochBuildMicros, &kIngestQuarantines,
          &kIngestCompactions,   &kServeRequests,
          &kServeQueries,        &kServeBatches,
          &kServeBatchSizeMax,   &kServeOverloaded,
          &kServeDeadlineExpired, &kServeQueueDepth,
          &kServeLatency,        &kServeQueueWait,
          &kServeEngineTime,     &kServeBatchSize,
      };
  return *all;
}

CoreMetrics& GetCoreMetrics() {
  static CoreMetrics* metrics = [] {
    Registry& r = Registry::Global();
    return new CoreMetrics{
        r.GetCounter(kCoreUdaBuilds),
        r.GetCounter(kCoreUdaPosts),
        r.GetCounter(kCoreSimilarityMatrices),
        r.GetCounter(kCoreSimilarityRows),
        r.GetCounter(kCoreTopKDenseRows),
        r.GetCounter(kCoreFilterRuns),
        r.GetCounter(kCoreFilterRejected),
        r.GetCounter(kCoreRefinedUsers),
        r.GetGauge(kCoreSimdKernel),
        r.GetHistogram(kCoreScoreBlockSize),
    };
  }();
  return *metrics;
}

IndexMetrics& GetIndexMetrics() {
  static IndexMetrics* metrics = [] {
    Registry& r = Registry::Global();
    return new IndexMetrics{
        r.GetCounter(kIndexTopKQueries),
        r.GetCounter(kIndexExactEvals),
        r.GetCounter(kIndexBoundPruned),
        r.GetCounter(kIndexSnapshotLoads),
        r.GetCounter(kIndexSnapshotRebuilds),
        r.GetCounter(kIndexDenseScans),
    };
  }();
  return *metrics;
}

EngineMetrics& GetEngineMetrics() {
  static EngineMetrics* metrics = [] {
    Registry& r = Registry::Global();
    return new EngineMetrics{
        r.GetCounter(kEngineMatrixBuilds),
        r.GetGauge(kEngineActive),
        r.GetCounter(kEngineBlindRounds),
        r.GetCounter(kEngineCommunityMatched),
    };
  }();
  return *metrics;
}

ShardMetrics BindShardMetrics(Registry& registry) {
  return ShardMetrics{
      registry.GetCounter(kShardScatterRpcs),
      registry.GetCounter(kShardScatterFailures),
      registry.GetCounter(kShardPartialAnswers),
      registry.GetHistogram(kShardMergeMicros),
      registry.GetHistogram(kShardBackendLatency),
      registry.GetCounter(kShardSnapshotQuarantines),
  };
}

ShardMetrics& GetShardMetrics() {
  static ShardMetrics* metrics =
      new ShardMetrics(BindShardMetrics(Registry::Global()));
  return *metrics;
}

ReplicaMetrics BindReplicaMetrics(Registry& registry) {
  return ReplicaMetrics{
      registry.GetCounter(kReplicaFailovers),
      registry.GetCounter(kReplicaEjections),
      registry.GetCounter(kReplicaReadmissions),
      registry.GetCounter(kReplicaProbes),
      registry.GetCounter(kReplicaProbeFailures),
      registry.GetCounter(kReplicaHedges),
      registry.GetCounter(kReplicaHedgeWins),
      registry.GetGauge(kReplicaHealthyBackends),
      registry.GetCounter(kReplicaRolloutSeals),
  };
}

ReplicaMetrics& GetReplicaMetrics() {
  static ReplicaMetrics* metrics =
      new ReplicaMetrics(BindReplicaMetrics(Registry::Global()));
  return *metrics;
}

JobMetrics& GetJobMetrics() {
  static JobMetrics* metrics = [] {
    Registry& r = Registry::Global();
    return new JobMetrics{
        r.GetCounter(kJobShardsLoaded),
        r.GetCounter(kJobShardsComputed),
        r.GetCounter(kJobQuarantines),
    };
  }();
  return *metrics;
}

IngestMetrics& GetIngestMetrics() {
  static IngestMetrics* metrics = [] {
    Registry& r = Registry::Global();
    return new IngestMetrics{
        r.GetCounter(kIngestSegmentsLoaded),
        r.GetCounter(kIngestPostsApplied),
        r.GetCounter(kIngestEpochSeals),
        r.GetGauge(kIngestEpochSeq),
        r.GetGauge(kIngestStagedSegments),
        r.GetHistogram(kIngestEpochBuildMicros),
        r.GetCounter(kIngestQuarantines),
        r.GetCounter(kIngestCompactions),
    };
  }();
  return *metrics;
}

void RegisterAllMetrics(Registry& registry) {
  for (const MetricDef* def : AllMetricDefs()) {
    switch (def->type) {
      case MetricType::kCounter:
        registry.GetCounter(*def);
        break;
      case MetricType::kGauge:
        registry.GetGauge(*def);
        break;
      case MetricType::kHistogram:
        registry.GetHistogram(*def);
        break;
    }
  }
}

}  // namespace dehealth::obs
