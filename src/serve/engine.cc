#include "serve/engine.h"

#include <string>
#include <utility>

#include "job/runner.h"

namespace dehealth {

QueryEngine::QueryEngine(UdaGraph anonymized, UdaGraph auxiliary,
                         DeHealthConfig config)
    : anonymized_(std::move(anonymized)),
      auxiliary_(std::move(auxiliary)),
      attack_(std::move(config)) {}

StatusOr<std::unique_ptr<QueryEngine>> QueryEngine::Create(
    UdaGraph anonymized, UdaGraph auxiliary, DeHealthConfig config) {
  std::unique_ptr<QueryEngine> engine(new QueryEngine(
      std::move(anonymized), std::move(auxiliary), std::move(config)));
  DEHEALTH_RETURN_IF_ERROR(engine->Init());
  return engine;
}

Status QueryEngine::Init() {
  const DeHealthConfig& config = attack_.config();

  // Score source — the same construction RunDeHealthAttack and the job
  // runner perform, so served answers match the one-shot pipeline bit for
  // bit.
  StatusOr<std::unique_ptr<AttackScoreSource>> bundle =
      BuildAttackScoreSource(anonymized_, auxiliary_, config);
  if (!bundle.ok()) return bundle.status();
  bundle_ = std::move(bundle).value();

  // Phase 1 once: the unfiltered sets answer kTopK at the default K, and
  // filtering thresholds are global (max/min over all scores), so they
  // must be fixed at startup — a per-query filter would see different
  // thresholds per batch. With a job directory, phase 1 runs through the
  // crash-safe shard store: a restart loads the shards a previous process
  // (server or CLI) committed instead of recomputing them, and a warm
  // start interrupted by SIGTERM/SIGKILL resumes next launch.
  StatusOr<DeHealthCandidates> state = DeHealthCandidates{};
  if (config.job_dir.empty()) {
    state = attack_.SelectCandidates(scores(), &raw_);
  } else {
    StatusOr<AttackJob> job =
        AttackJob::Open(anonymized_, auxiliary_, config);
    if (!job.ok()) return job.status();
    state = job->SelectCandidates(scores(), &raw_);
  }
  if (!state.ok()) return state.status();
  state_ = std::move(state).value();
  return Status();
}

int QueryEngine::num_anonymized() const { return scores().num_anonymized(); }

int QueryEngine::num_auxiliary() const { return scores().num_auxiliary(); }

Status QueryEngine::ValidateUsers(const std::vector<int>& users) const {
  const int n1 = num_anonymized();
  for (int u : users)
    if (u < 0 || u >= n1)
      return Status::InvalidArgument(
          "QueryEngine: user id " + std::to_string(u) +
          " out of range [0, " + std::to_string(n1) + ")");
  return Status();
}

StatusOr<TopKAnswer> QueryEngine::TopKLocal(const std::vector<int>& users,
                                            int k) const {
  const DeHealthConfig& config = attack_.config();
  if (k == 0) k = config.top_k;
  if (k < 1)
    return Status::InvalidArgument("QueryEngine::TopK: k must be >= 1");
  TopKAnswer answer;
  if (k == config.top_k) {
    DEHEALTH_RETURN_IF_ERROR(ValidateUsers(users));
    answer.candidates.reserve(users.size());
    for (int u : users)
      answer.candidates.push_back(raw_.candidates[static_cast<size_t>(u)]);
    return answer;
  }
  if (config.selection == CandidateSelection::kGraphMatching)
    return Status::FailedPrecondition(
        "QueryEngine::TopK: graph-matching selection precomputes exactly "
        "K=" + std::to_string(config.top_k) +
        "; request k=0 (default) or k=" + std::to_string(config.top_k));
  StatusOr<CandidateSets> sets =
      scores().TopKForUsers(users, k, config.num_threads, nullptr);
  if (!sets.ok()) return sets.status();
  answer.candidates = std::move(sets).value();
  return answer;
}

StatusOr<TopKAnswer> QueryEngine::TopK(const std::vector<int>& users,
                                       int k) const {
  StatusOr<TopKAnswer> answer = TopKLocal(users, k);
  if (!answer.ok()) return answer.status();
  // Slice mode: the score source holds the range [shard_begin,
  // shard_begin + num_auxiliary) of the universe under LOCAL ids; answers
  // leave the engine under GLOBAL auxiliary ids so a router (or a client
  // comparing against a full run) never sees shard-relative ids.
  const int shard_begin = bundle_->slice.range.begin;
  if (shard_begin != 0)
    for (auto& list : answer->candidates)
      for (int& v : list) v += shard_begin;
  return answer;
}

StatusOr<ScoredTopKAnswer> QueryEngine::TopKScored(
    const std::vector<int>& users, int k) const {
  // Resolve candidate LOCAL ids exactly like TopK (so the scored answer is
  // the same sets, same order), then attach the exact per-pair score and
  // translate to global ids last.
  StatusOr<TopKAnswer> plain = TopKLocal(users, k);
  if (!plain.ok()) return plain.status();
  ScoredTopKAnswer answer;
  answer.candidates.reserve(plain->candidates.size());
  for (size_t i = 0; i < plain->candidates.size(); ++i) {
    const int u = users[i];
    std::vector<ScoredUser> scored;
    scored.reserve(plain->candidates[i].size());
    for (int v : plain->candidates[i])
      scored.push_back(ScoredUser{scores().Score(u, v),
                                  v + bundle_->slice.range.begin});
    answer.candidates.push_back(std::move(scored));
  }
  return answer;
}

ShardInfoAnswer QueryEngine::ShardInfo() const {
  ShardInfoAnswer info;
  const IndexSlice& slice = bundle_->slice;
  info.shard_index = static_cast<uint32_t>(slice.shard_index);
  info.shard_count = static_cast<uint32_t>(slice.shard_count);
  info.shard_begin = static_cast<uint64_t>(slice.range.begin);
  info.shard_total = static_cast<uint64_t>(slice.universe_size);
  info.universe_fingerprint = slice.universe_fingerprint;
  info.num_anonymized = static_cast<uint64_t>(num_anonymized());
  info.default_top_k = static_cast<uint64_t>(attack_.config().top_k);
  info.engine = static_cast<uint32_t>(attack_.config().engine);
  return info;
}

StatusOr<RefinedAnswer> QueryEngine::Refine(
    const std::vector<int>& users) const {
  if (bundle_->slice.shard_count > 1)
    return Status::FailedPrecondition(
        "QueryEngine::Refine: refined DA is universe-global and cannot run "
        "on a shard slice (--shard-count > 1); query an unsharded server");
  StatusOr<RefinedDaResult> result =
      attack_.RefineUsers(anonymized_, auxiliary_, scores(), state_, users);
  if (!result.ok()) return result.status();
  RefinedAnswer answer;
  answer.predictions = std::move(result->predictions);
  answer.rejected = std::move(result->rejected);
  return answer;
}

StatusOr<FilteredAnswer> QueryEngine::Filtered(
    const std::vector<int>& users) const {
  if (bundle_->slice.shard_count > 1)
    return Status::FailedPrecondition(
        "QueryEngine::Filtered: filtering thresholds are universe-global "
        "and cannot run on a shard slice (--shard-count > 1)");
  if (!attack_.config().enable_filtering)
    return Status::FailedPrecondition(
        "QueryEngine::Filtered: the server was started without filtering "
        "(pass --filter to dehealth_serve)");
  DEHEALTH_RETURN_IF_ERROR(ValidateUsers(users));
  FilteredAnswer answer;
  answer.candidates.reserve(users.size());
  answer.rejected.reserve(users.size());
  for (int u : users) {
    answer.candidates.push_back(state_.candidates[static_cast<size_t>(u)]);
    answer.rejected.push_back(state_.rejected[static_cast<size_t>(u)]);
  }
  return answer;
}

}  // namespace dehealth
