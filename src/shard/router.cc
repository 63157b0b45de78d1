#include "shard/router.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "common/fault_injection.h"
#include "common/parallel.h"
#include "core/engine_kind.h"
#include "core/top_k.h"
#include "shard/partition.h"

namespace dehealth {

namespace {

double ElapsedMicros(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Names a wire engine value for an error message; unknown values (a
/// newer peer's engine) stay numeric instead of masquerading as a name.
std::string EngineLabel(uint32_t engine) {
  if (engine <= static_cast<uint32_t>(EngineKind::kCommunity))
    return EngineKindName(static_cast<EngineKind>(engine));
  return "unknown(" + std::to_string(engine) + ")";
}

/// Parses one "host:port" entry of a --backends spec.
StatusOr<BackendAddress> ParseHostPort(const std::string& entry,
                                       const std::string& spec) {
  if (entry.empty())
    return Status::InvalidArgument(
        "--backends: empty entry in \"" + spec + "\"");
  const size_t colon = entry.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == entry.size())
    return Status::InvalidArgument(
        "--backends: \"" + entry + "\" is not host:port");
  int port = 0;
  for (size_t i = colon + 1; i < entry.size(); ++i) {
    const char c = entry[i];
    if (c < '0' || c > '9')
      return Status::InvalidArgument(
          "--backends: bad port in \"" + entry + "\"");
    port = port * 10 + (c - '0');
    if (port > 65535)
      return Status::InvalidArgument(
          "--backends: port out of range in \"" + entry + "\"");
  }
  if (port < 1)
    return Status::InvalidArgument(
        "--backends: port must be >= 1 in \"" + entry + "\"");
  return BackendAddress{entry.substr(0, colon), port};
}

/// The process-lifetime copy of a MetricDef string. Registries keep the
/// def by pointer and must outlive every render, so each distinct text is
/// stored once and a repeated one (the same backend in another router, or
/// a rebuilt one) reuses its entry.
const char* InternMetricText(std::string text) {
  static std::mutex mutex;
  static std::set<std::string>& store = *new std::set<std::string>;
  std::lock_guard<std::mutex> lock(mutex);
  return store.insert(std::move(text)).first->c_str();
}

/// Per-backend latency histogram in the router's registry.
obs::Histogram* BackendLatencyHistogram(obs::Registry& registry,
                                        const std::string& tag) {
  obs::MetricDef def{
      InternMetricText("dehealth_shard_backend" + tag + "_latency_micros"),
      obs::MetricType::kHistogram, "us", "shard",
      InternMetricText(
          "Round-trip latency of scatter RPCs to shard backend " + tag)};
  return registry.GetHistogram(def);
}

/// Per-backend gauge in the router's registry.
obs::Gauge* BackendGauge(obs::Registry& registry, const std::string& tag,
                         const std::string& what, const std::string& help) {
  obs::MetricDef def{
      InternMetricText("dehealth_shard_backend" + tag + "_" + what),
      obs::MetricType::kGauge, "1", "shard",
      InternMetricText(help + " of shard backend " + tag)};
  return registry.GetGauge(def);
}

/// "g_r" — the metric-name tag of replica r of shard group g. Collapses
/// to "g" for an unreplicated group so a PR 7 fleet keeps its metric
/// names ("dehealth_shard_backend0_latency_micros" etc.) across the
/// upgrade.
std::string BackendTag(size_t group, size_t replica, size_t group_size) {
  std::string tag = std::to_string(group);
  if (group_size > 1) tag.append("_").append(std::to_string(replica));
  return tag;
}

/// Re-labels one Prometheus sample line with {backend="<label>"} —
/// inserted into an existing label set when the sample already carries
/// one.
std::string LabelSample(const std::string& line, const std::string& value) {
  const std::string label = "backend=\"" + value + "\"";
  const size_t brace = line.find('{');
  const size_t space = line.find(' ');
  if (brace != std::string::npos && (space == std::string::npos ||
                                     brace < space))
    return line.substr(0, brace + 1) + label + "," + line.substr(brace + 1);
  if (space == std::string::npos) return line;  // malformed; pass through
  return line.substr(0, space) + "{" + label + "}" + line.substr(space);
}

}  // namespace

StatusOr<std::vector<BackendAddress>> ParseBackendList(
    const std::string& spec) {
  std::vector<BackendAddress> backends;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    StatusOr<BackendAddress> address = ParseHostPort(entry, spec);
    if (!address.ok()) return address.status();
    backends.push_back(std::move(address).value());
  }
  if (backends.empty())
    return Status::InvalidArgument("--backends: no backends listed");
  return backends;
}

StatusOr<std::vector<std::vector<BackendAddress>>> ParseBackendGroups(
    const std::string& spec) {
  std::vector<std::vector<BackendAddress>> groups;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string group_spec = spec.substr(pos, comma - pos);
    pos = comma + 1;
    std::vector<BackendAddress> group;
    size_t gpos = 0;
    while (gpos <= group_spec.size()) {
      size_t pipe = group_spec.find('|', gpos);
      if (pipe == std::string::npos) pipe = group_spec.size();
      StatusOr<BackendAddress> address =
          ParseHostPort(group_spec.substr(gpos, pipe - gpos), spec);
      if (!address.ok()) return address.status();
      group.push_back(std::move(address).value());
      gpos = pipe + 1;
    }
    groups.push_back(std::move(group));
  }
  if (groups.empty())
    return Status::InvalidArgument("--backends: no backends listed");
  return groups;
}

RouterHandler::RouterHandler(std::vector<std::vector<Backend>> groups,
                             RouterOptions options)
    : groups_(std::move(groups)), options_(options) {
  obs::Registry& registry =
      options_.registry != nullptr ? *options_.registry
                                   : obs::Registry::Global();
  metrics_ = obs::BindShardMetrics(registry);
  replica_metrics_ = obs::BindReplicaMetrics(registry);
  std::vector<int> sizes;
  sizes.reserve(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    sizes.push_back(static_cast<int>(groups_[g].size()));
    for (size_t r = 0; r < groups_[g].size(); ++r) {
      Backend& backend = groups_[g][r];
      const std::string tag = BackendTag(g, r, groups_[g].size());
      backend.latency = BackendLatencyHistogram(registry, tag);
      backend.epoch_seq =
          BackendGauge(registry, tag, "epoch_seq", "Ingest epoch sequence");
      backend.staged_segments =
          BackendGauge(registry, tag, "staged_segments",
                       "Unsealed staged delta segments");
      backend.epoch_seq->Set(static_cast<int64_t>(backend.info.epoch_seq));
      backend.staged_segments->Set(
          static_cast<int64_t>(backend.info.staged_segments));
      epoch_seq_ = std::max(epoch_seq_, backend.info.epoch_seq);
    }
  }
  health_ = std::make_unique<HealthTracker>(std::move(sizes),
                                            options_.health);
  replica_metrics_.healthy_backends->Set(health_->healthy_count());
  const ShardInfoAnswer& head = groups_.front().front().info;
  num_anonymized_ = static_cast<int>(head.num_anonymized);
  default_top_k_ = static_cast<int>(head.default_top_k);
  universe_size_ = head.shard_total;
  universe_fingerprint_ = head.universe_fingerprint;
}

int RouterHandler::num_backends() const {
  int total = 0;
  for (const auto& group : groups_) total += static_cast<int>(group.size());
  return total;
}

StatusOr<std::unique_ptr<RouterHandler>> RouterHandler::Connect(
    const std::vector<BackendAddress>& backends, RouterOptions options) {
  std::vector<std::vector<BackendAddress>> groups;
  groups.reserve(backends.size());
  for (const BackendAddress& backend : backends)
    groups.push_back({backend});
  return Connect(groups, std::move(options));
}

StatusOr<std::unique_ptr<RouterHandler>> RouterHandler::Connect(
    const std::vector<std::vector<BackendAddress>>& groups,
    RouterOptions options) {
  if (groups.empty())
    return Status::InvalidArgument("RouterHandler: no backends");
  for (const auto& group : groups)
    if (group.empty())
      return Status::InvalidArgument("RouterHandler: empty shard group");
  const int n = static_cast<int>(groups.size());

  // Connect + interrogate every replica of every group. Topology
  // validation is fail-closed regardless of require_all_shards: a router
  // that cannot see the whole fleet cannot prove the fleet is one
  // universe (and with replicas, cannot prove the siblings are copies).
  std::vector<std::vector<std::pair<ShardInfoAnswer, QueryClient>>>
      connected(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const BackendAddress& address : groups[g]) {
      const std::string where =
          address.host + ":" + std::to_string(address.port);
      StatusOr<QueryClient> client =
          QueryClient::Connect(address.host, address.port, options.retry);
      if (!client.ok())
        return Status(client.status().code(),
                      "RouterHandler: backend " + where +
                          " unreachable: " + client.status().message());
      StatusOr<ShardInfoAnswer> info = client->ShardInfo();
      if (!info.ok())
        return Status(info.status().code(),
                      "RouterHandler: backend " + where +
                          " shard-info failed: " + info.status().message());
      connected[g].emplace_back(*info, std::move(client).value());
    }
  }

  // One canonical partition of one universe, or nothing. Replicas within
  // a group must be copies of the same slice.
  const ShardInfoAnswer& head = connected.front().front().first;
  if (head.shard_total >
      static_cast<uint64_t>(std::numeric_limits<int>::max()))
    return Status::InvalidArgument(
        "RouterHandler: universe too large for int ids");
  const std::vector<ShardRange> ranges =
      ComputeShardRanges(static_cast<int>(head.shard_total), n);
  std::vector<bool> claimed(static_cast<size_t>(n), false);
  // (shard index, replica set), sorted into shard order once validated.
  std::vector<std::pair<size_t, std::vector<Backend>>> tagged;
  tagged.reserve(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    std::vector<Backend> replicas;
    replicas.reserve(groups[g].size());
    const ShardInfoAnswer& group_head = connected[g].front().first;
    for (size_t r = 0; r < groups[g].size(); ++r) {
      const ShardInfoAnswer& info = connected[g][r].first;
      const std::string where = groups[g][r].host + ":" +
                                std::to_string(groups[g][r].port);
      if (static_cast<int>(info.shard_count) != n)
        return Status::FailedPrecondition(
            "RouterHandler: backend " + where + " is shard " +
            std::to_string(info.shard_index) + " of " +
            std::to_string(info.shard_count) + ", but " +
            std::to_string(n) + " shard groups are configured");
      if (info.shard_total != head.shard_total)
        return Status::FailedPrecondition(
            "RouterHandler: backend " + where +
            " serves a different-sized auxiliary universe — refusing to "
            "merge (scatter ranges would not partition either universe)");
      if (info.universe_fingerprint != head.universe_fingerprint) {
        // Sealing an ingest epoch rewrites the aux content, so a fleet
        // mid-rollout legitimately shows mixed fingerprints at equal
        // size. Only --allow-epoch-skew accepts that; the merged answers
        // are then transitional, not bitwise-reproducible — and a leg
        // that fails over between skewed siblings is not bitwise-stable
        // either.
        if (!options.allow_epoch_skew)
          return Status::FailedPrecondition(
              "RouterHandler: backend " + where +
              " serves a different auxiliary universe (fingerprint "
              "mismatch) — refusing to merge (pass --allow-epoch-skew if "
              "this fleet is mid-epoch-rollout)");
        std::fprintf(stderr,
                     "[dehealth_router] warning: backend %s universe "
                     "fingerprint differs from the first backend "
                     "(--allow-epoch-skew; merged answers are "
                     "transitional)\n",
                     where.c_str());
      }
      if (info.num_anonymized != head.num_anonymized)
        return Status::FailedPrecondition(
            "RouterHandler: backend " + where +
            " serves a different anonymized dataset");
      if (info.default_top_k != head.default_top_k)
        return Status::FailedPrecondition(
            "RouterHandler: backend " + where +
            " is configured with a different default K");
      // Mixed engines are refused unconditionally (no skew escape
      // hatch): each engine scores on its own scale, so merging a
      // blind shard's heap with a structural shard's heap would rank
      // candidates by which backend they happened to live on.
      if (info.engine != head.engine)
        return Status::FailedPrecondition(
            "RouterHandler: backend " + where + " runs --engine=" +
            EngineLabel(info.engine) +
            " but the first backend runs --engine=" +
            EngineLabel(head.engine) +
            " — a fleet must agree on one attack engine (scores from "
            "different engines are not comparable)");
      // Mixed ingest epochs mean the backends sealed different segment
      // chains — different logical forums. The fingerprint check above
      // usually fires first (sealing changes the universe fingerprint),
      // but epoch_seq names the actionable condition: a rollout
      // mid-flight.
      if (info.epoch_seq != head.epoch_seq) {
        const std::string skew =
            "RouterHandler: backend " + where + " is at ingest epoch " +
            std::to_string(info.epoch_seq) +
            " but the first backend is at " +
            std::to_string(head.epoch_seq);
        if (!options.allow_epoch_skew)
          return Status::FailedPrecondition(
              skew +
              " — mixed-epoch fleet refused (pass --allow-epoch-skew "
              "to serve through a rollout)");
        std::fprintf(stderr, "[dehealth_router] warning: %s "
                             "(--allow-epoch-skew)\n", skew.c_str());
      }
      // Replica discipline: siblings must claim the same slice. (Their
      // content equality is the fingerprint check above; this catches a
      // mis-grouped --backends spec even when every shard shares the
      // universe.)
      if (info.shard_index != group_head.shard_index ||
          info.shard_begin != group_head.shard_begin)
        return Status::FailedPrecondition(
            "RouterHandler: backend " + where + " claims shard " +
            std::to_string(info.shard_index) +
            " but its replica group's first backend claims shard " +
            std::to_string(group_head.shard_index) +
            " — replicas of one group must serve the same slice");
      replicas.push_back(Backend{groups[g][r], info,
                                 std::move(connected[g][r].second),
                                 nullptr});
    }
    const size_t index = group_head.shard_index;
    const std::string where = groups[g].front().host + ":" +
                              std::to_string(groups[g].front().port);
    if (index >= static_cast<size_t>(n) || claimed[index])
      return Status::FailedPrecondition(
          "RouterHandler: backend " + where + " claims shard " +
          std::to_string(group_head.shard_index) +
          (index < static_cast<size_t>(n) ? ", already claimed"
                                          : ", out of range"));
    if (group_head.shard_begin !=
        static_cast<uint64_t>(ranges[index].begin))
      return Status::FailedPrecondition(
          "RouterHandler: backend " + where + " starts at auxiliary id " +
          std::to_string(group_head.shard_begin) +
          "; the canonical shard " +
          std::to_string(group_head.shard_index) + " of " +
          std::to_string(n) + " starts at " +
          std::to_string(ranges[index].begin));
    claimed[index] = true;
    tagged.emplace_back(index, std::move(replicas));
  }
  std::sort(tagged.begin(), tagged.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::vector<Backend>> ordered;
  ordered.reserve(tagged.size());
  for (auto& [index, replicas] : tagged) {
    (void)index;
    ordered.push_back(std::move(replicas));
  }

  return std::unique_ptr<RouterHandler>(
      new RouterHandler(std::move(ordered), options));
}

void RouterHandler::ProbeEjectedReplicas() const {
  for (size_t g = 0; g < groups_.size(); ++g) {
    for (size_t r = 0; r < groups_[g].size(); ++r) {
      if (!health_->ShouldProbe(static_cast<int>(g), static_cast<int>(r)))
        continue;
      // ShouldProbe armed the slot: every path below must record an
      // outcome or the backend would never be probed again.
      const Backend& backend = groups_[g][r];
      replica_metrics_.probes->Increment();
      Status verdict = InjectFaultPoint("router.probe");
      StatusOr<ShardInfoAnswer> info =
          Status::Unavailable("probe suppressed");
      if (verdict.ok()) {
        // Fresh fail-fast connection: the scatter client may hold a dead
        // fd, and a probe must never stall a query behind retry backoff.
        RetryPolicy fail_fast;
        StatusOr<QueryClient> probe = QueryClient::Connect(
            backend.address.host, backend.address.port, fail_fast);
        info = probe.ok() ? probe->ShardInfo() : probe.status();
        if (!info.ok()) verdict = info.status();
      }
      if (verdict.ok()) {
        // Re-admit only a backend that still IS the replica it was:
        // same slice as a live healthy sibling (connect-time info when
        // the whole group is dark), same universe unless the operator
        // already accepted skew. A restarted backend pointed at the
        // wrong snapshot stays ejected.
        const ShardInfoAnswer* expect = &backend.info;
        StatusOr<ShardInfoAnswer> sibling_info =
            Status::NotFound("no healthy sibling");
        for (size_t s = 0; s < groups_[g].size() && verdict.ok(); ++s) {
          if (s == r ||
              !health_->healthy(static_cast<int>(g), static_cast<int>(s)))
            continue;
          RetryPolicy fail_fast;
          StatusOr<QueryClient> sibling = QueryClient::Connect(
              groups_[g][s].address.host, groups_[g][s].address.port,
              fail_fast);
          if (!sibling.ok()) continue;
          sibling_info = sibling->ShardInfo();
          if (sibling_info.ok()) {
            expect = &*sibling_info;
            break;
          }
        }
        if (info->shard_index != expect->shard_index ||
            info->shard_begin != expect->shard_begin ||
            info->shard_count != expect->shard_count ||
            info->shard_total != expect->shard_total)
          verdict = Status::FailedPrecondition(
              "probe: backend came back claiming a different slice");
        else if (!options_.allow_epoch_skew &&
                 (info->universe_fingerprint !=
                      expect->universe_fingerprint ||
                  info->epoch_seq != expect->epoch_seq))
          verdict = Status::FailedPrecondition(
              "probe: backend came back at a different epoch");
      }
      if (verdict.ok()) {
        backend.info = *info;
        backend.epoch_seq->Set(static_cast<int64_t>(info->epoch_seq));
        backend.staged_segments->Set(
            static_cast<int64_t>(info->staged_segments));
        if (health_->RecordSuccess(static_cast<int>(g),
                                   static_cast<int>(r)))
          replica_metrics_.readmissions->Increment();
      } else {
        replica_metrics_.probe_failures->Increment();
        health_->RecordFailure(static_cast<int>(g), static_cast<int>(r));
      }
      replica_metrics_.healthy_backends->Set(health_->healthy_count());
    }
  }
}

StatusOr<ScoredTopKAnswer> RouterHandler::TimedLeg(
    int g, int r, const std::vector<int>& users, int k) const {
  const Backend& backend =
      groups_[static_cast<size_t>(g)][static_cast<size_t>(r)];
  metrics_.scatter_rpcs->Increment();
  const auto start = std::chrono::steady_clock::now();
  StatusOr<ScoredTopKAnswer> result = backend.client.TopKScored(users, k);
  const double micros = ElapsedMicros(start);
  backend.latency->Record(micros);
  metrics_.backend_latency->Record(micros);
  return result;
}

StatusOr<ScoredTopKAnswer> RouterHandler::HedgedLeg(
    int g, int primary, int sibling, const std::vector<int>& users,
    int k) const {
  // The helper thread owns the primary replica's client for the duration
  // of the leg; this (task) thread touches it only through
  // CancelInFlight, the one cross-thread-safe member.
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  StatusOr<ScoredTopKAnswer> primary_result = Status::Internal("pending");
  std::thread helper([&] {
    StatusOr<ScoredTopKAnswer> result = TimedLeg(g, primary, users, k);
    {
      std::lock_guard<std::mutex> lock(m);
      primary_result = std::move(result);
      done = true;
    }
    cv.notify_one();
  });
  {
    std::unique_lock<std::mutex> lock(m);
    if (cv.wait_for(lock, std::chrono::milliseconds(options_.hedge_ms),
                    [&] { return done; })) {
      lock.unlock();
      helper.join();
      return primary_result;  // in time: behave exactly like TimedLeg
    }
  }
  // The primary is slow (or dead): fire the same request at the sibling.
  replica_metrics_.hedges->Increment();
  Status fault = InjectFaultPoint("router.hedge");
  StatusOr<ScoredTopKAnswer> hedge_result =
      fault.ok() ? TimedLeg(g, sibling, users, k)
                 : StatusOr<ScoredTopKAnswer>(fault);
  if (!hedge_result.ok()) {
    // The hedge lost its own race; its failure is health evidence the
    // caller will never see, so record it here, then fall back to
    // waiting the primary out.
    NoteFailure(g, sibling);
    helper.join();
    return primary_result;
  }
  bool primary_done;
  {
    std::lock_guard<std::mutex> lock(m);
    primary_done = done;
  }
  if (!primary_done) {
    // Cancel the in-flight primary: its socket is shut down under it, the
    // round trip returns Cancelled without retrying, and the abandoned
    // answer carries no health evidence either way.
    groups_[static_cast<size_t>(g)][static_cast<size_t>(primary)]
        .client.CancelInFlight();
    helper.join();
    replica_metrics_.hedge_wins->Increment();
    NoteSuccess(g, sibling);
    return hedge_result;
  }
  helper.join();
  if (primary_result.ok()) {
    // Both answered (the primary just after the hedge fired). The answers
    // are bitwise-identical by the replica invariant; return the
    // primary's so the caller's health accounting lands on `primary`.
    NoteSuccess(g, sibling);
    return primary_result;
  }
  // Primary failed while the hedge succeeded: the hedge is the answer and
  // the primary's failure is the hidden outcome to record.
  NoteFailure(g, primary);
  replica_metrics_.hedge_wins->Increment();
  NoteSuccess(g, sibling);
  return hedge_result;
}

void RouterHandler::NoteSuccess(int g, int r) const {
  if (health_->RecordSuccess(g, r))
    replica_metrics_.readmissions->Increment();
  replica_metrics_.healthy_backends->Set(health_->healthy_count());
}

void RouterHandler::NoteFailure(int g, int r) const {
  if (health_->RecordFailure(g, r))
    replica_metrics_.ejections->Increment();
  replica_metrics_.healthy_backends->Set(health_->healthy_count());
}

StatusOr<ScoredTopKAnswer> RouterHandler::ScatterLeg(
    int g, const std::vector<int>& users, int k) const {
  const std::vector<int> order = health_->RouteOrder(g);
  StatusOr<ScoredTopKAnswer> result =
      Status::Unavailable("RouterHandler: shard group " +
                          std::to_string(g) + " has no replicas");
  for (size_t attempt = 0; attempt < order.size(); ++attempt) {
    const int r = order[attempt];
    if (attempt > 0) replica_metrics_.failovers->Increment();
    Status fault =
        InjectFaultPoint(attempt == 0 ? "router.scatter" : "router.failover");
    if (!fault.ok()) {
      result = fault;
    } else {
      // Hedge against the next still-healthy replica in the route order,
      // if any; a group down to one live replica degrades to plain legs.
      int sibling = -1;
      if (options_.hedge_ms > 0) {
        for (size_t j = attempt + 1; j < order.size(); ++j) {
          if (health_->healthy(g, order[j])) {
            sibling = order[j];
            break;
          }
        }
      }
      result = sibling >= 0 ? HedgedLeg(g, r, sibling, users, k)
                            : TimedLeg(g, r, users, k);
    }
    if (result.ok()) {
      NoteSuccess(g, r);
      return result;
    }
    // Only transport-level unavailability justifies trying a sibling: any
    // other error (bad ids, wrong k) is the query's own fault and every
    // bitwise-identical replica would answer it the same way.
    if (result.status().code() != StatusCode::kUnavailable) return result;
    NoteFailure(g, r);
  }
  return result;
}

StatusOr<ScoredTopKAnswer> RouterHandler::TopKScored(
    const std::vector<int>& users, int k) const {
  if (k == 0) k = default_top_k_;
  if (k < 1)
    return Status::InvalidArgument("RouterHandler: k must be >= 1");
  const size_t n = groups_.size();

  // Give ejected replicas whose probe backoff elapsed their kShardInfo
  // probe before scattering — re-admission happens on the query path, so
  // an idle router still converges the moment traffic returns.
  ProbeEjectedReplicas();

  // Scatter: one leg per shard group, concurrently (each task owns
  // exactly one group's clients, so the ParallelFor write-your-own-slot
  // contract holds). The request carries the caller's k verbatim — every
  // backend resolves 0 to the same validated default.
  std::vector<StatusOr<ScoredTopKAnswer>> answers(
      n, StatusOr<ScoredTopKAnswer>(Status::Internal("not scattered")));
  ParallelFor(0, static_cast<int64_t>(n), [&](int64_t i) {
    answers[static_cast<size_t>(i)] =
        ScatterLeg(static_cast<int>(i), users, k);
  });

  // Gather: a shard group whose every replica stayed unreachable through
  // failover (Unavailable) degrades the answer; any other error is the
  // query's own fault (bad ids, wrong k for the selection mode) and every
  // shard would agree, so it propagates as-is.
  std::vector<const ScoredTopKAnswer*> live;
  live.reserve(n);
  bool partial = false;
  for (size_t i = 0; i < n; ++i) {
    if (answers[i].ok()) {
      if (answers[i]->candidates.size() != users.size())
        return Status::Internal(
            "RouterHandler: shard " + std::to_string(i) +
            " answered " + std::to_string(answers[i]->candidates.size()) +
            " lists for " + std::to_string(users.size()) + " users");
      partial |= answers[i]->partial;
      live.push_back(&*answers[i]);
      continue;
    }
    const Status& error = answers[i].status();
    if (error.code() != StatusCode::kUnavailable) return error;
    metrics_.scatter_failures->Increment();
    if (options_.require_all_shards)
      return Status::Unavailable(
          "RouterHandler: shard group " + std::to_string(i) + " (" +
          groups_[i].front().address.host + ":" +
          std::to_string(groups_[i].front().address.port) +
          (groups_[i].size() > 1 ? " and its replicas" : "") +
          ") is down and --require-all-shards is set: " + error.message());
    partial = true;
  }
  if (live.empty())
    return Status::Unavailable("RouterHandler: all " + std::to_string(n) +
                               " shard groups are down");

  DEHEALTH_RETURN_IF_ERROR(InjectFaultPoint("router.merge"));
  const auto merge_start = std::chrono::steady_clock::now();
  ScoredTopKAnswer merged;
  merged.partial = partial;
  merged.candidates.reserve(users.size());
  std::vector<std::vector<ScoredUser>> per_shard(live.size());
  for (size_t u = 0; u < users.size(); ++u) {
    for (size_t s = 0; s < live.size(); ++s)
      per_shard[s] = live[s]->candidates[u];
    merged.candidates.push_back(MergeScoredTopK(per_shard, k));
  }
  metrics_.merge_micros->Record(ElapsedMicros(merge_start));
  if (partial) metrics_.partial_answers->Increment();
  return merged;
}

StatusOr<TopKAnswer> RouterHandler::TopK(const std::vector<int>& users,
                                         int k) const {
  StatusOr<ScoredTopKAnswer> scored = TopKScored(users, k);
  if (!scored.ok()) return scored.status();
  TopKAnswer answer;
  answer.partial = scored->partial;
  answer.candidates.reserve(scored->candidates.size());
  for (const std::vector<ScoredUser>& list : scored->candidates) {
    std::vector<int> ids;
    ids.reserve(list.size());
    for (const ScoredUser& c : list) ids.push_back(c.user);
    answer.candidates.push_back(std::move(ids));
  }
  return answer;
}

StatusOr<RefinedAnswer> RouterHandler::Refine(
    const std::vector<int>& users) const {
  (void)users;
  return Status::Unimplemented(
      "RouterHandler: refined DA needs universe-global training state no "
      "shard holds; query an unsharded dehealth_serve instead");
}

StatusOr<FilteredAnswer> RouterHandler::Filtered(
    const std::vector<int>& users) const {
  (void)users;
  return Status::Unimplemented(
      "RouterHandler: filtering thresholds are universe-global; query an "
      "unsharded dehealth_serve instead");
}

ShardInfoAnswer RouterHandler::ShardInfo() const {
  // Upstream, the router IS the (whole) universe: shard 0 of 1.
  ShardInfoAnswer info;
  info.shard_index = 0;
  info.shard_count = 1;
  info.shard_begin = 0;
  info.shard_total = universe_size_;
  info.universe_fingerprint = universe_fingerprint_;
  info.num_anonymized = static_cast<uint64_t>(num_anonymized_);
  info.default_top_k = static_cast<uint64_t>(default_top_k_);
  info.epoch_seq = epoch_seq_;
  return info;
}

std::string RouterHandler::ForwardedMetrics() const {
  std::lock_guard<std::mutex> lock(scrape_mutex_);
  std::string out =
      "# router: per-backend ingest metrics (label backend=\"group\" or "
      "\"group.replica\")\n";
  bool described = false;
  for (size_t g = 0; g < groups_.size(); ++g) {
    for (size_t r = 0; r < groups_[g].size(); ++r) {
      const Backend& backend = groups_[g][r];
      std::string label = std::to_string(g);
      if (groups_[g].size() > 1) label.append(".").append(std::to_string(r));
      const std::string where = backend.address.host + ":" +
                                std::to_string(backend.address.port);
      // Fresh fail-fast connection per scrape: the scatter client belongs
      // to the executor thread, and a scrape must not stall behind retry
      // backoff while a shard restarts.
      RetryPolicy fail_fast;
      StatusOr<QueryClient> client = QueryClient::Connect(
          backend.address.host, backend.address.port, fail_fast);
      if (!client.ok()) {
        out += "# backend " + label + " (" + where +
               ") unreachable: " + client.status().message() + "\n";
        continue;
      }
      StatusOr<ShardInfoAnswer> info = client->ShardInfo();
      if (info.ok()) {
        backend.epoch_seq->Set(static_cast<int64_t>(info->epoch_seq));
        backend.staged_segments->Set(
            static_cast<int64_t>(info->staged_segments));
      }
      StatusOr<std::string> render = client->Metrics();
      if (!render.ok()) {
        out += "# backend " + label + " (" + where +
               ") scrape failed: " + render.status().message() + "\n";
        continue;
      }
      // Re-export only the ingest subsystem, labeled per backend.
      // HELP/TYPE headers come from the first backend that renders them —
      // every backend shares the metric definitions.
      size_t pos = 0;
      while (pos < render->size()) {
        size_t end = render->find('\n', pos);
        if (end == std::string::npos) end = render->size();
        const std::string line = render->substr(pos, end - pos);
        pos = end + 1;
        if (line.rfind("dehealth_ingest_", 0) == 0) {
          out += LabelSample(line, label) + "\n";
        } else if (!described && line.rfind("# ", 0) == 0 &&
                   line.find(" dehealth_ingest_") != std::string::npos) {
          out += line + "\n";
        }
      }
      described = true;
    }
  }
  return out;
}

}  // namespace dehealth
