#include "ingest/epoch.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "io/byte_codec.h"
#include "obs/standard_metrics.h"
#include "obs/trace.h"

namespace dehealth {
namespace ingest {

namespace {

/// Quarantines a corrupt DHSG file (keep the evidence, never serve it,
/// never spin a retry loop on it); only a completed rename is counted.
void QuarantineSegmentFile(const std::string& path, const Status& why) {
  if (QuarantineFile(path, why))
    obs::GetIngestMetrics().quarantines->Increment();
}

}  // namespace

EpochHandler::EpochHandler(UdaGraph anonymized, DeHealthConfig config)
    : anonymized_(std::move(anonymized)), config_(std::move(config)) {}

void EpochHandler::ConfigureAutoSeal(AutoSealPolicy policy) {
  auto_seal_ = std::move(policy);
  auto_seal_.posts_threshold = std::max(auto_seal_.posts_threshold, 0);
  auto_seal_.secs_threshold = std::max(auto_seal_.secs_threshold, 0);
}

int64_t EpochHandler::NowMs() const {
  if (auto_seal_.now_ms) return auto_seal_.now_ms();
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

StatusOr<std::unique_ptr<EpochHandler>> EpochHandler::Create(
    UdaGraph anonymized, ForumDataset auxiliary_dataset,
    DeHealthConfig config) {
  auto handler = std::unique_ptr<EpochHandler>(
      new EpochHandler(std::move(anonymized), std::move(config)));
  handler->staging_ = IngestState::FromDataset(std::move(auxiliary_dataset),
                                               handler->config_.num_threads);
  // The boot epoch honors the full config — warm starts from --job-dir and
  // DHIX snapshot reuse work exactly as on a non-ingest server.
  UdaGraph anon_copy = handler->anonymized_;
  UdaGraph aux_copy = handler->staging_.uda();
  StatusOr<std::unique_ptr<QueryEngine>> engine = QueryEngine::Create(
      std::move(anon_copy), std::move(aux_copy), handler->config_);
  if (!engine.ok()) return engine.status();
  handler->current_ = std::shared_ptr<const QueryEngine>(
      std::move(engine).value().release());
  obs::IngestMetrics& metrics = obs::GetIngestMetrics();
  metrics.epoch_seq->Set(0);
  metrics.staged_segments->Set(0);
  return handler;
}

std::shared_ptr<const QueryEngine> EpochHandler::Engine() const {
  std::lock_guard<std::mutex> lock(epoch_mutex_);
  return current_;
}

Status EpochHandler::LoadSegment(const std::string& segment_path) const {
  std::lock_guard<std::mutex> lock(admin_mutex_);
  obs::Span span("ingest", "epoch_load_segment");
  StatusOr<DeltaSegment> segment = LoadSegmentFile(segment_path);
  if (!segment.ok()) {
    // A DHSG file that does not decode is corrupt evidence — quarantine
    // it (PR 4 contract) so a retry loop cannot spin on it and operators
    // can post-mortem the bytes. The magic gate matters: this path is
    // named by an unauthenticated DHQP client, and a file that was never
    // a segment (a typo'd path naming the server's own dataset, snapshot,
    // or log) must be refused WITHOUT being renamed aside.
    if (segment.status().code() != StatusCode::kNotFound &&
        FileHasSegmentMagic(segment_path))
      QuarantineSegmentFile(segment_path, segment.status());
    return segment.status();
  }
  // Shard gate: universal segments (0 of 1) apply everywhere — epoch
  // rebuilds consume the full auxiliary universe even in slice mode — but
  // a segment stamped for a specific slice must land on that slice.
  const bool universal =
      segment->shard_index == 0 && segment->shard_count == 1;
  if (!universal &&
      (segment->shard_index != static_cast<uint32_t>(config_.shard_index) ||
       segment->shard_count != static_cast<uint32_t>(config_.shard_count)))
    return Status::FailedPrecondition(
        "segment is stamped for shard " +
        std::to_string(segment->shard_index) + " of " +
        std::to_string(segment->shard_count) + " but this server is shard " +
        std::to_string(config_.shard_index) + " of " +
        std::to_string(config_.shard_count));
  Status applied = staging_.Apply(*segment);
  if (!applied.ok()) {
    // Apply is transactional: on failure the staging state was rolled
    // back (or, if rollback verification failed, marked poisoned — seals
    // refuse until a clean state exists). A segment whose decoded content
    // does not match its own result manifest (kInvalidArgument) is
    // corrupt evidence just like an undecodable file; a stale/foreign
    // segment (kFailedPrecondition) is a healthy file applied to the
    // wrong state and stays where it is.
    if (applied.code() == StatusCode::kInvalidArgument)
      QuarantineSegmentFile(segment_path, applied);
    return applied;
  }
  obs::IngestMetrics& metrics = obs::GetIngestMetrics();
  metrics.segments_loaded->Increment();
  if (staged_segments_.load() == 0) first_staged_ms_ = NowMs();
  staged_posts_ += segment->posts.size();
  metrics.staged_segments->Set(
      static_cast<int64_t>(staged_segments_.fetch_add(1) + 1));
  // Post-count auto-seal: the segment that crosses the threshold seals
  // the epoch before its own response goes out, so the caller's post-op
  // ShardInfo already shows the swap. A failed auto-seal is NOT this
  // load's failure — the segment staged fine and the previous epoch keeps
  // serving — so it only warns.
  if (auto_seal_.posts_threshold > 0 &&
      staged_posts_ >= static_cast<uint64_t>(auto_seal_.posts_threshold)) {
    Status sealed = SealEpochLocked();
    if (!sealed.ok())
      std::fprintf(stderr, "warning: auto-seal (%llu staged posts) failed: "
                           "%s\n",
                   static_cast<unsigned long long>(staged_posts_),
                   sealed.ToString().c_str());
  }
  return Status::OK();
}

Status EpochHandler::SealEpoch() const {
  std::lock_guard<std::mutex> lock(admin_mutex_);
  return SealEpochLocked();
}

StatusOr<bool> EpochHandler::MaybeAutoSeal() const {
  if (auto_seal_.secs_threshold <= 0) return false;
  std::lock_guard<std::mutex> lock(admin_mutex_);
  if (staged_segments_.load() == 0) return false;
  const int64_t age_ms = NowMs() - first_staged_ms_;
  if (age_ms < static_cast<int64_t>(auto_seal_.secs_threshold) * 1000)
    return false;
  DEHEALTH_RETURN_IF_ERROR(SealEpochLocked());
  return true;
}

Status EpochHandler::SealEpochLocked() const {
  obs::Span span("ingest", "epoch_seal");
  // A poisoned staging state (a failed apply whose rollback could not be
  // verified) must never be built into a serving epoch: an integrity
  // failure fails CLOSED — the previous epoch keeps serving.
  if (staging_.poisoned())
    return Status::FailedPrecondition(
        "epoch seal refused: the staging state is poisoned by an earlier "
        "failed segment apply; restart the server to rebuild it (still "
        "serving the previous epoch)");
  const auto start = std::chrono::steady_clock::now();
  // Rebuild config: never resume from or overwrite the base run's durable
  // artifacts — the staged universe has a different fingerprint, and a
  // half-written snapshot named like the base one would poison the next
  // boot.
  DeHealthConfig rebuild = config_;
  rebuild.job_dir.clear();
  rebuild.index_snapshot_path.clear();
  UdaGraph anon_copy = anonymized_;
  UdaGraph aux_copy = staging_.uda();
  StatusOr<std::unique_ptr<QueryEngine>> engine = QueryEngine::Create(
      std::move(anon_copy), std::move(aux_copy), std::move(rebuild));
  if (!engine.ok())
    return Status(engine.status().code(),
                  "epoch seal failed (still serving the previous epoch): " +
                      std::string(engine.status().message()));
  std::shared_ptr<const QueryEngine> fresh(
      std::move(engine).value().release());
  {
    // The swap itself: queries that already copied the old pointer finish
    // on the old epoch; everyone after this block sees the new one.
    std::lock_guard<std::mutex> swap(epoch_mutex_);
    current_ = std::move(fresh);
  }
  const uint64_t seq = epoch_seq_.fetch_add(1) + 1;
  staged_segments_.store(0);
  staged_posts_ = 0;
  obs::IngestMetrics& metrics = obs::GetIngestMetrics();
  metrics.epoch_seals->Increment();
  metrics.epoch_seq->Set(static_cast<int64_t>(seq));
  metrics.staged_segments->Set(0);
  metrics.epoch_build_micros->Record(
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start)
          .count());
  return Status::OK();
}

int EpochHandler::num_anonymized() const { return Engine()->num_anonymized(); }

int EpochHandler::default_top_k() const { return Engine()->default_top_k(); }

StatusOr<TopKAnswer> EpochHandler::TopK(const std::vector<int>& users,
                                        int k) const {
  return Engine()->TopK(users, k);
}

StatusOr<ScoredTopKAnswer> EpochHandler::TopKScored(
    const std::vector<int>& users, int k) const {
  return Engine()->TopKScored(users, k);
}

StatusOr<RefinedAnswer> EpochHandler::Refine(
    const std::vector<int>& users) const {
  return Engine()->Refine(users);
}

StatusOr<FilteredAnswer> EpochHandler::Filtered(
    const std::vector<int>& users) const {
  return Engine()->Filtered(users);
}

ShardInfoAnswer EpochHandler::ShardInfo() const {
  ShardInfoAnswer info = Engine()->ShardInfo();
  info.epoch_seq = epoch_seq_.load();
  info.staged_segments = staged_segments_.load();
  return info;
}

}  // namespace ingest
}  // namespace dehealth
