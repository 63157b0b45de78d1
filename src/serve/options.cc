#include "serve/options.h"

namespace dehealth {

namespace {

/// Unwraps a flag lookup or propagates its parse error.
#define OPTIONS_ASSIGN_OR_RETURN(name, expr)        \
  auto name##_or = (expr);                          \
  if (!(name##_or).ok()) return (name##_or).status(); \
  const auto name = *(name##_or)

}  // namespace

StatusOr<DeHealthConfig> ParseAttackFlags(const FlagParser& flags) {
  DeHealthConfig config;
  OPTIONS_ASSIGN_OR_RETURN(k, flags.GetInt("k", 10));
  OPTIONS_ASSIGN_OR_RETURN(threads, flags.GetInt("threads", 0));
  if (k < 1) return Status::InvalidArgument("--k must be >= 1");
  if (threads < 0)
    return Status::InvalidArgument(
        "--threads must be >= 0 (0 = all hardware threads)");
  config.top_k = k;
  config.num_threads = threads;
  OPTIONS_ASSIGN_OR_RETURN(
      engine, ParseEngineKind(flags.Get("engine", "structural")));
  config.engine = engine;
  config.similarity.idf_weight_attributes = flags.Has("idf");
  OPTIONS_ASSIGN_OR_RETURN(
      simd, ParseSimdMode(flags.Get("simd", "auto")));
  config.similarity.simd = simd;
  config.enable_filtering = flags.Has("filter");
  config.index_snapshot_path = flags.Get("index-path");
  // Crash-safe checkpoint/resume (src/job/): both binaries accept the same
  // job flags so a serve warm start can reuse shards a CLI run committed.
  config.job_dir = flags.Get("job-dir");
  OPTIONS_ASSIGN_OR_RETURN(shard_size, flags.GetInt("shard-size", 64));
  if (shard_size < 1)
    return Status::InvalidArgument("--shard-size must be >= 1");
  config.job_shard_size = shard_size;
  // --shard-index / --shard-count make this process ONE slice of a
  // router-fronted fleet (src/shard/).
  OPTIONS_ASSIGN_OR_RETURN(shard_index, flags.GetInt("shard-index", 0));
  OPTIONS_ASSIGN_OR_RETURN(shard_count, flags.GetInt("shard-count", 1));
  // The candidate index is a structural-kernel artifact; the matrix-backed
  // engines have nothing to load, so combining them is a config error,
  // not a degradation.
  if (config.engine != EngineKind::kStructural &&
      !config.index_snapshot_path.empty())
    return Status::InvalidArgument(
        std::string("--index-path only applies to --engine=structural, "
                    "not --engine=") +
        EngineKindName(config.engine));
  if (shard_count < 1)
    return Status::InvalidArgument("--shard-count must be >= 1");
  if (shard_index < 0 || shard_index >= shard_count)
    return Status::InvalidArgument(
        "--shard-index must be in [0, --shard-count)");
  if (shard_count > 1 && config.enable_filtering)
    return Status::InvalidArgument(
        "--filter needs universe-global thresholds and cannot run on a "
        "shard slice (--shard-count > 1); filter in one unsharded process "
        "instead");
  config.shard_index = shard_index;
  config.shard_count = shard_count;
  const std::string learner = flags.Get("learner", "smo");
  if (learner == "smo") {
    config.refined.learner = LearnerKind::kSmoSvm;
  } else if (learner == "knn") {
    config.refined.learner = LearnerKind::kKnn;
  } else if (learner == "rlsc") {
    config.refined.learner = LearnerKind::kRlsc;
  } else if (learner == "centroid") {
    config.refined.learner = LearnerKind::kNearestCentroid;
  } else {
    return Status::InvalidArgument(
        "--learner must be smo, knn, rlsc, or centroid (got '" + learner +
        "')");
  }
  return config;
}

StatusOr<ServerConfig> ParseServerFlags(const FlagParser& flags) {
  ServerConfig config;
  config.host = flags.Get("host", "127.0.0.1");
  OPTIONS_ASSIGN_OR_RETURN(port, flags.GetInt("port", 0));
  OPTIONS_ASSIGN_OR_RETURN(queue, flags.GetInt("queue", 64));
  OPTIONS_ASSIGN_OR_RETURN(batch, flags.GetInt("batch", 16));
  OPTIONS_ASSIGN_OR_RETURN(timeout_ms,
                           flags.GetDouble("timeout-ms", 0.0));
  OPTIONS_ASSIGN_OR_RETURN(stats_period,
                           flags.GetDouble("stats-period", 0.0));
  if (port < 0 || port > 65535)
    return Status::InvalidArgument("--port must be in [0, 65535]");
  if (queue < 0) return Status::InvalidArgument("--queue must be >= 0");
  if (batch < 1) return Status::InvalidArgument("--batch must be >= 1");
  if (timeout_ms < 0.0)
    return Status::InvalidArgument("--timeout-ms must be >= 0");
  if (stats_period < 0.0)
    return Status::InvalidArgument("--stats-period must be >= 0");
  config.port = port;
  config.max_queue = queue;
  config.max_batch = batch;
  config.default_timeout_ms = timeout_ms;
  config.stats_log_period_s = stats_period;
  return config;
}

}  // namespace dehealth
