#include "shard/router.h"

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "obs/metrics.h"
#include "obs/standard_metrics.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "serve/engine.h"
#include "serve/server.h"

namespace dehealth {
namespace {

DeHealthConfig SliceConfig(int shard_index, int shard_count) {
  DeHealthConfig config;
  config.top_k = 5;
  config.refined.learner = LearnerKind::kNearestCentroid;
  config.num_threads = 2;
  config.shard_index = shard_index;
  config.shard_count = shard_count;
  return config;
}

std::vector<int> AllUsers(int n) {
  std::vector<int> users(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) users[static_cast<size_t>(i)] = i;
  return users;
}

/// One live slice backend: a QueryEngine over shard i of n plus the
/// QueryServer in front of it.
struct Backend {
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<QueryServer> server;

  int port() const { return server->port(); }
  void Stop() {
    server->Shutdown();
    server->Wait();
  }
};

class RouterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto forum = GenerateForum(WebMdLikeConfig(40, 23));
    ASSERT_TRUE(forum.ok());
    auto scenario = MakeClosedWorldScenario(forum->dataset, 0.5, 11);
    ASSERT_TRUE(scenario.ok());
    anon_ = new UdaGraph(BuildUdaGraph(scenario->anonymized));
    aux_ = new UdaGraph(BuildUdaGraph(scenario->auxiliary));
    // A second, unrelated universe for the mismatch tests.
    auto other_forum = GenerateForum(WebMdLikeConfig(40, 99));
    ASSERT_TRUE(other_forum.ok());
    auto other = MakeClosedWorldScenario(other_forum->dataset, 0.5, 7);
    ASSERT_TRUE(other.ok());
    other_anon_ = new UdaGraph(BuildUdaGraph(other->anonymized));
    other_aux_ = new UdaGraph(BuildUdaGraph(other->auxiliary));
  }

  void TearDown() override { FaultInjector::Global().Reset(); }

  static StatusOr<Backend> StartSlice(const UdaGraph& anon,
                                      const UdaGraph& aux, int shard_index,
                                      int shard_count, int port = 0) {
    Backend backend;
    auto engine = QueryEngine::Create(
        anon, aux, SliceConfig(shard_index, shard_count));
    if (!engine.ok()) return engine.status();
    backend.engine = std::move(engine).value();
    ServerConfig config;
    config.port = port;
    backend.server =
        std::make_unique<QueryServer>(*backend.engine, config);
    DEHEALTH_RETURN_IF_ERROR(backend.server->Start());
    return backend;
  }

  static std::vector<BackendAddress> Addresses(
      const std::vector<Backend>& backends) {
    std::vector<BackendAddress> addresses;
    for (const Backend& b : backends)
      addresses.push_back(BackendAddress{"127.0.0.1", b.port()});
    return addresses;
  }

  static StatusOr<std::vector<Backend>> StartFleet(int n) {
    std::vector<Backend> backends;
    for (int i = 0; i < n; ++i) {
      auto backend = StartSlice(*anon_, *aux_, i, n);
      if (!backend.ok()) return backend.status();
      backends.push_back(std::move(backend).value());
    }
    return backends;
  }

  static void StopFleet(std::vector<Backend>& backends) {
    for (Backend& b : backends) b.Stop();
  }

  /// n shard groups of r replicas each — every replica of group g is an
  /// independent engine over the identical slice (deterministic build, so
  /// the replicas really are bitwise-identical copies).
  static StatusOr<std::vector<std::vector<Backend>>> StartReplicaFleet(
      int n, int r) {
    std::vector<std::vector<Backend>> groups;
    for (int g = 0; g < n; ++g) {
      std::vector<Backend> replicas;
      for (int i = 0; i < r; ++i) {
        auto backend = StartSlice(*anon_, *aux_, g, n);
        if (!backend.ok()) return backend.status();
        replicas.push_back(std::move(backend).value());
      }
      groups.push_back(std::move(replicas));
    }
    return groups;
  }

  static std::vector<std::vector<BackendAddress>> GroupAddresses(
      const std::vector<std::vector<Backend>>& groups) {
    std::vector<std::vector<BackendAddress>> addresses;
    for (const auto& group : groups) {
      std::vector<BackendAddress> replicas;
      for (const Backend& b : group)
        replicas.push_back(BackendAddress{"127.0.0.1", b.port()});
      addresses.push_back(std::move(replicas));
    }
    return addresses;
  }

  static void StopGroups(std::vector<std::vector<Backend>>& groups) {
    for (auto& group : groups) StopFleet(group);
  }

  /// Probes fire on the first query after ~1ms — what the readmission
  /// tests need to converge without real-time sleeps dominating.
  static RouterOptions FastProbeOptions(obs::Registry* registry) {
    RouterOptions options;
    options.health.initial_probe_ms = 1;
    options.health.max_probe_ms = 5;
    options.registry = registry;
    return options;
  }

  static UdaGraph* anon_;
  static UdaGraph* aux_;
  static UdaGraph* other_anon_;
  static UdaGraph* other_aux_;
};

UdaGraph* RouterTest::anon_ = nullptr;
UdaGraph* RouterTest::aux_ = nullptr;
UdaGraph* RouterTest::other_anon_ = nullptr;
UdaGraph* RouterTest::other_aux_ = nullptr;

TEST_F(RouterTest, MergedAnswersBitwiseMatchUnshardedServer) {
  auto unsharded = QueryEngine::Create(*anon_, *aux_, SliceConfig(0, 1));
  ASSERT_TRUE(unsharded.ok()) << unsharded.status().ToString();
  const std::vector<int> users = AllUsers((*unsharded)->num_anonymized());
  auto golden = (*unsharded)->TopK(users, 0);
  ASSERT_TRUE(golden.ok());
  auto golden_scored = (*unsharded)->TopKScored(users, 3);
  ASSERT_TRUE(golden_scored.ok());

  for (int n : {1, 2, 3}) {
    auto fleet = StartFleet(n);
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    auto router = RouterHandler::Connect(Addresses(*fleet), RouterOptions());
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    EXPECT_EQ((*router)->num_backends(), n);
    EXPECT_EQ((*router)->num_anonymized(),
              (*unsharded)->num_anonymized());

    auto merged = (*router)->TopK(users, 0);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_FALSE(merged->partial);
    EXPECT_EQ(merged->candidates, golden->candidates) << "n=" << n;

    auto merged_scored = (*router)->TopKScored(users, 3);
    ASSERT_TRUE(merged_scored.ok());
    ASSERT_EQ(merged_scored->candidates.size(),
              golden_scored->candidates.size());
    for (size_t u = 0; u < users.size(); ++u) {
      const auto& got = merged_scored->candidates[u];
      const auto& want = golden_scored->candidates[u];
      ASSERT_EQ(got.size(), want.size()) << "n=" << n << " u=" << u;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].user, want[i].user);
        EXPECT_EQ(got[i].score, want[i].score);  // bitwise
      }
    }
    StopFleet(*fleet);
  }
}

TEST_F(RouterTest, RouterBehindQueryServerSpeaksPlainDhqp) {
  auto fleet = StartFleet(2);
  ASSERT_TRUE(fleet.ok());
  auto router = RouterHandler::Connect(Addresses(*fleet), RouterOptions());
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  QueryServer front(**router, ServerConfig());
  ASSERT_TRUE(front.Start().ok());

  auto client = QueryClient::Connect("127.0.0.1", front.port());
  ASSERT_TRUE(client.ok());
  auto answer = client->TopK({0, 5, 9}, 0);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_FALSE(answer->partial);
  ASSERT_EQ(answer->candidates.size(), 3u);

  auto unsharded = QueryEngine::Create(*anon_, *aux_, SliceConfig(0, 1));
  ASSERT_TRUE(unsharded.ok());
  auto golden = (*unsharded)->TopK({0, 5, 9}, 0);
  ASSERT_TRUE(golden.ok());
  EXPECT_EQ(answer->candidates, golden->candidates);

  // Refined/filtered cannot shard: the router refuses them upstream.
  EXPECT_FALSE(client->Refine({0}).ok());
  auto info = client->ShardInfo();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->shard_count, 1u);  // the router IS the whole universe
  front.Shutdown();
  front.Wait();
  StopFleet(*fleet);
}

TEST_F(RouterTest, BackendDownAtConnectFailsClosed) {
  auto fleet = StartFleet(2);
  ASSERT_TRUE(fleet.ok());
  std::vector<BackendAddress> addresses = Addresses(*fleet);
  // Kill backend 1 BEFORE the router connects: topology cannot be
  // validated, so Connect fails regardless of require_all_shards.
  (*fleet)[1].Stop();
  auto router = RouterHandler::Connect(addresses, RouterOptions());
  EXPECT_FALSE(router.ok());
  (*fleet)[0].Stop();
}

TEST_F(RouterTest, BackendDownMidQueryDegradesToPartial) {
  auto fleet = StartFleet(3);
  ASSERT_TRUE(fleet.ok());
  auto router = RouterHandler::Connect(Addresses(*fleet), RouterOptions());
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  const std::vector<int> users = {0, 1, 2, 3};
  auto before = (*router)->TopKScored(users, 0);
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(before->partial);

  (*fleet)[2].Stop();
  auto after = (*router)->TopKScored(users, 0);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after->partial);
  // The merge over the two live shards is still exact over THEIR slice:
  // every candidate now comes from shards 0-1's id ranges.
  const uint64_t total = (*router)->universe_size();
  ASSERT_EQ(after->candidates.size(), users.size());
  for (const auto& list : after->candidates)
    for (const ScoredUser& c : list)
      EXPECT_LT(static_cast<uint64_t>(c.user), total);

  StopFleet(*fleet);
}

TEST_F(RouterTest, RequireAllShardsFailsClosedMidQuery) {
  auto fleet = StartFleet(2);
  ASSERT_TRUE(fleet.ok());
  RouterOptions options;
  options.require_all_shards = true;
  auto router = RouterHandler::Connect(Addresses(*fleet), options);
  ASSERT_TRUE(router.ok());

  auto ok = (*router)->TopK({0, 1}, 0);
  ASSERT_TRUE(ok.ok());

  (*fleet)[0].Stop();
  auto refused = (*router)->TopK({0, 1}, 0);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  StopFleet(*fleet);
}

TEST_F(RouterTest, MismatchedUniverseFailsClosed) {
  // Backend 0 serves shard 0/2 of universe A; backend 1 serves shard 1/2
  // of universe B. The fingerprints disagree → refuse to merge.
  auto a = StartSlice(*anon_, *aux_, 0, 2);
  ASSERT_TRUE(a.ok());
  auto b = StartSlice(*other_anon_, *other_aux_, 1, 2);
  ASSERT_TRUE(b.ok());
  std::vector<BackendAddress> addresses = {
      {"127.0.0.1", a->port()}, {"127.0.0.1", b->port()}};
  auto router = RouterHandler::Connect(addresses, RouterOptions());
  ASSERT_FALSE(router.ok());
  EXPECT_EQ(router.status().code(), StatusCode::kFailedPrecondition);
  a->Stop();
  b->Stop();
}

TEST_F(RouterTest, MixedEngineFleetFailsClosed) {
  // Shard 0 runs the structural engine, shard 1 the blind engine: their
  // scores live on different scales, so a merged ranking would order
  // candidates by which backend they happened to live on. Refused hard —
  // there is deliberately no --allow-* escape hatch for this one.
  auto structural = StartSlice(*anon_, *aux_, 0, 2);
  ASSERT_TRUE(structural.ok());
  Backend blind;
  {
    DeHealthConfig config = SliceConfig(1, 2);
    config.engine = EngineKind::kBlind;
    auto engine = QueryEngine::Create(*anon_, *aux_, config);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    blind.engine = std::move(engine).value();
    blind.server =
        std::make_unique<QueryServer>(*blind.engine, ServerConfig());
    ASSERT_TRUE(blind.server->Start().ok());
  }
  std::vector<BackendAddress> addresses = {
      {"127.0.0.1", structural->port()}, {"127.0.0.1", blind.port()}};
  auto router = RouterHandler::Connect(addresses, RouterOptions());
  ASSERT_FALSE(router.ok());
  EXPECT_EQ(router.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(router.status().message().find("engine"), std::string::npos);
  // An all-blind fleet is fine: the engines agree, so the merge is valid.
  Backend blind0;
  {
    DeHealthConfig config = SliceConfig(0, 2);
    config.engine = EngineKind::kBlind;
    auto engine = QueryEngine::Create(*anon_, *aux_, config);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    blind0.engine = std::move(engine).value();
    blind0.server =
        std::make_unique<QueryServer>(*blind0.engine, ServerConfig());
    ASSERT_TRUE(blind0.server->Start().ok());
  }
  std::vector<BackendAddress> all_blind = {
      {"127.0.0.1", blind0.port()}, {"127.0.0.1", blind.port()}};
  auto agreed = RouterHandler::Connect(all_blind, RouterOptions());
  EXPECT_TRUE(agreed.ok()) << agreed.status().ToString();
  structural->Stop();
  blind.Stop();
  blind0.Stop();
}

TEST_F(RouterTest, WrongShardCountOrDuplicateShardFailsClosed) {
  // Two backends both claiming shard 0 of 2: duplicate claim.
  auto a = StartSlice(*anon_, *aux_, 0, 2);
  auto b = StartSlice(*anon_, *aux_, 0, 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::vector<BackendAddress> duplicate = {
      {"127.0.0.1", a->port()}, {"127.0.0.1", b->port()}};
  auto router = RouterHandler::Connect(duplicate, RouterOptions());
  ASSERT_FALSE(router.ok());
  EXPECT_EQ(router.status().code(), StatusCode::kFailedPrecondition);

  // One backend of a declared-2-shard fleet: count mismatch.
  std::vector<BackendAddress> short_fleet = {{"127.0.0.1", a->port()}};
  auto short_router = RouterHandler::Connect(short_fleet, RouterOptions());
  ASSERT_FALSE(short_router.ok());
  EXPECT_EQ(short_router.status().code(), StatusCode::kFailedPrecondition);
  a->Stop();
  b->Stop();
}

TEST_F(RouterTest, ScatterFaultInjectionDegrades) {
  auto fleet = StartFleet(2);
  ASSERT_TRUE(fleet.ok());
  auto router = RouterHandler::Connect(Addresses(*fleet), RouterOptions());
  ASSERT_TRUE(router.ok());

  // One scatter RPC dies with a connection reset: partial answer.
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("router.scatter:reset:1")
                  .ok());
  auto partial = (*router)->TopKScored({0, 1}, 0);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_TRUE(partial->partial);

  // The merge step itself failing is a hard error, not a degradation.
  ASSERT_TRUE(
      FaultInjector::Global().Configure("router.merge:fail:1").ok());
  EXPECT_FALSE((*router)->TopKScored({0, 1}, 0).ok());

  FaultInjector::Global().Reset();
  auto healthy = (*router)->TopKScored({0, 1}, 0);
  ASSERT_TRUE(healthy.ok());
  EXPECT_FALSE(healthy->partial);
  StopFleet(*fleet);
}

TEST_F(RouterTest, ParseBackendGroups) {
  auto replicated = ParseBackendGroups("a:1|b:2,c:3|d:4|e:5");
  ASSERT_TRUE(replicated.ok()) << replicated.status().ToString();
  ASSERT_EQ(replicated->size(), 2u);
  ASSERT_EQ((*replicated)[0].size(), 2u);
  ASSERT_EQ((*replicated)[1].size(), 3u);
  EXPECT_EQ((*replicated)[0][0].host, "a");
  EXPECT_EQ((*replicated)[0][1].port, 2);
  EXPECT_EQ((*replicated)[1][2].host, "e");

  auto two = ParseBackendGroups("127.0.0.1:19001,localhost:19002");
  ASSERT_TRUE(two.ok());
  ASSERT_EQ(two->size(), 2u);
  EXPECT_EQ((*two)[0][0].host, "127.0.0.1");
  EXPECT_EQ((*two)[0][0].port, 19001);
  EXPECT_EQ((*two)[1][0].host, "localhost");
  EXPECT_EQ((*two)[1][0].port, 19002);

  // A PR 7 flat spec parses as unreplicated groups, unchanged.
  auto flat = ParseBackendGroups("a:1,b:2");
  ASSERT_TRUE(flat.ok());
  ASSERT_EQ(flat->size(), 2u);
  EXPECT_EQ((*flat)[0].size(), 1u);
  EXPECT_EQ((*flat)[1].size(), 1u);

  EXPECT_FALSE(ParseBackendGroups("").ok());
  EXPECT_FALSE(ParseBackendGroups("a:1|,b:2").ok());   // empty replica
  EXPECT_FALSE(ParseBackendGroups("|a:1").ok());       // leading separator
  EXPECT_FALSE(ParseBackendGroups("a:1,,b:2").ok());   // empty group
  EXPECT_FALSE(ParseBackendGroups("a:1|b").ok());      // missing port
  EXPECT_FALSE(ParseBackendGroups("a:1|b:70000").ok());
  EXPECT_FALSE(ParseBackendGroups("hostonly").ok());
  EXPECT_FALSE(ParseBackendGroups("host:").ok());
  EXPECT_FALSE(ParseBackendGroups(":123").ok());
  EXPECT_FALSE(ParseBackendGroups("host:abc").ok());
  EXPECT_FALSE(ParseBackendGroups("host:70000").ok());
}

TEST_F(RouterTest, ReplicatedAnswersByteIdenticalUnderEveryKillSchedule) {
  // The golden: an unreplicated (R=1) fleet of the same shape.
  auto golden_fleet = StartFleet(2);
  ASSERT_TRUE(golden_fleet.ok());
  auto golden_router =
      RouterHandler::Connect(Addresses(*golden_fleet), RouterOptions());
  ASSERT_TRUE(golden_router.ok()) << golden_router.status().ToString();
  const std::vector<int> users = AllUsers((*golden_router)->num_anonymized());
  auto golden = (*golden_router)->TopKScored(users, 3);
  ASSERT_TRUE(golden.ok());
  EXPECT_FALSE(golden->partial);
  StopFleet(*golden_fleet);

  // Every schedule: which replica (if any) to kill, and whether reads
  // hedge. The answer must be byte-identical and complete in all of them.
  struct Schedule {
    int kill_group;  // -1 = nobody dies
    int kill_replica;
    int hedge_ms;
  };
  const Schedule schedules[] = {
      {-1, 0, 0}, {0, 0, 0}, {0, 1, 0}, {1, 1, 0}, {-1, 0, 1}, {1, 0, 1},
  };
  for (const Schedule& schedule : schedules) {
    auto groups = StartReplicaFleet(2, 2);
    ASSERT_TRUE(groups.ok()) << groups.status().ToString();
    RouterOptions options;
    options.hedge_ms = schedule.hedge_ms;
    auto router =
        RouterHandler::Connect(GroupAddresses(*groups), options);
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    EXPECT_EQ((*router)->num_groups(), 2);
    EXPECT_EQ((*router)->num_backends(), 4);

    if (schedule.kill_group >= 0)
      (*groups)[static_cast<size_t>(schedule.kill_group)]
               [static_cast<size_t>(schedule.kill_replica)]
                   .Stop();
    for (int round = 0; round < 3; ++round) {
      auto answer = (*router)->TopKScored(users, 3);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      EXPECT_FALSE(answer->partial)
          << "kill (" << schedule.kill_group << "," << schedule.kill_replica
          << ") hedge " << schedule.hedge_ms << " round " << round;
      ASSERT_EQ(answer->candidates.size(), golden->candidates.size());
      for (size_t u = 0; u < users.size(); ++u) {
        const auto& got = answer->candidates[u];
        const auto& want = golden->candidates[u];
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].user, want[i].user);
          EXPECT_EQ(got[i].score, want[i].score);  // bitwise
        }
      }
    }
    StopGroups(*groups);
  }
}

TEST_F(RouterTest, KilledReplicaFailsOverWithoutPartial) {
  auto groups = StartReplicaFleet(2, 2);
  ASSERT_TRUE(groups.ok());
  obs::Registry registry;
  RouterOptions options;
  options.require_all_shards = true;  // failover must make this moot
  options.registry = &registry;
  auto router = RouterHandler::Connect(GroupAddresses(*groups), options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  (*groups)[0][0].Stop();
  auto answer = (*router)->TopKScored({0, 1, 2}, 0);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_FALSE(answer->partial);
  EXPECT_GE(registry.GetCounter(obs::kReplicaFailovers)->Value(), 1u);
  EXPECT_GE(registry.GetCounter(obs::kReplicaEjections)->Value(), 1u);
  EXPECT_FALSE((*router)->replica_healthy(0, 0));
  EXPECT_TRUE((*router)->replica_healthy(0, 1));
  EXPECT_EQ(registry.GetGauge(obs::kReplicaHealthyBackends)->Value(), 3);

  // The WHOLE group gone is still a hard stop under require_all_shards.
  (*groups)[0][1].Stop();
  auto refused = (*router)->TopKScored({0, 1, 2}, 0);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  StopGroups(*groups);
}

TEST_F(RouterTest, RestartedReplicaIsProbedReadmittedAndServesAgain) {
  auto groups = StartReplicaFleet(2, 2);
  ASSERT_TRUE(groups.ok());
  obs::Registry registry;
  auto router = RouterHandler::Connect(GroupAddresses(*groups),
                                       FastProbeOptions(&registry));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  const std::vector<int> users = {0, 1, 2, 3};
  auto golden = (*router)->TopKScored(users, 0);
  ASSERT_TRUE(golden.ok());

  // Kill replica (0,1) and query until the health tracker ejects it (the
  // rotation decides which query routes group 0's leg at the dead one).
  const int dead_port = (*groups)[0][1].port();
  (*groups)[0][1].Stop();
  for (int i = 0; i < 4 && (*router)->replica_healthy(0, 1); ++i)
    ASSERT_TRUE((*router)->TopKScored(users, 0).ok());
  EXPECT_FALSE((*router)->replica_healthy(0, 1));
  EXPECT_GE(registry.GetCounter(obs::kReplicaEjections)->Value(), 1u);

  // While it is down, due probes fail and keep it ejected.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE((*router)->TopKScored(users, 0).ok());
  EXPECT_GE(registry.GetCounter(obs::kReplicaProbes)->Value(), 1u);
  EXPECT_GE(registry.GetCounter(obs::kReplicaProbeFailures)->Value(), 1u);
  EXPECT_FALSE((*router)->replica_healthy(0, 1));

  // Restart the SAME backend (same slice, same data, same port). The next
  // due probe readmits it.
  auto restarted = StartSlice(*anon_, *aux_, 0, 2, dead_port);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  (*groups)[0][1] = std::move(restarted).value();
  const uint64_t readmissions_before =
      registry.GetCounter(obs::kReplicaReadmissions)->Value();
  for (int i = 0; i < 50 && !(*router)->replica_healthy(0, 1); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE((*router)->TopKScored(users, 0).ok());
  }
  EXPECT_TRUE((*router)->replica_healthy(0, 1));
  EXPECT_GT(registry.GetCounter(obs::kReplicaReadmissions)->Value(),
            readmissions_before);
  EXPECT_EQ(registry.GetGauge(obs::kReplicaHealthyBackends)->Value(), 4);

  // Prove it really serves: kill its sibling — the restarted replica is
  // now group 0's only backend, and answers stay complete and identical.
  (*groups)[0][0].Stop();
  auto after = (*router)->TopKScored(users, 0);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->partial);
  ASSERT_EQ(after->candidates.size(), golden->candidates.size());
  for (size_t u = 0; u < users.size(); ++u) {
    const auto& got = after->candidates[u];
    const auto& want = golden->candidates[u];
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].user, want[i].user);
      EXPECT_EQ(got[i].score, want[i].score);
    }
  }
  StopGroups(*groups);
}

TEST_F(RouterTest, MisGroupedReplicasRefusedAtConnect) {
  // Group 0 pairs a shard-0 backend with a shard-1 backend: both healthy,
  // both the right universe, but NOT copies of each other — failing over
  // between them would silently swap which slice answers.
  auto slice0 = StartSlice(*anon_, *aux_, 0, 2);
  auto slice1 = StartSlice(*anon_, *aux_, 1, 2);
  auto extra1 = StartSlice(*anon_, *aux_, 1, 2);
  ASSERT_TRUE(slice0.ok());
  ASSERT_TRUE(slice1.ok());
  ASSERT_TRUE(extra1.ok());
  std::vector<std::vector<BackendAddress>> mis_grouped = {
      {{"127.0.0.1", slice0->port()}, {"127.0.0.1", slice1->port()}},
      {{"127.0.0.1", extra1->port()}},
  };
  auto router = RouterHandler::Connect(mis_grouped, RouterOptions());
  ASSERT_FALSE(router.ok());
  EXPECT_EQ(router.status().code(), StatusCode::kFailedPrecondition);
  slice0->Stop();
  slice1->Stop();
  extra1->Stop();
}

TEST_F(RouterTest, SliceEngineRefusesGlobalPhases) {
  auto backend = StartSlice(*anon_, *aux_, 0, 2);
  ASSERT_TRUE(backend.ok());
  auto refined = backend->engine->Refine({0});
  EXPECT_FALSE(refined.ok());
  EXPECT_EQ(refined.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(backend->engine->Filtered({0}).ok());
  const ShardInfoAnswer info = backend->engine->ShardInfo();
  EXPECT_EQ(info.shard_index, 0u);
  EXPECT_EQ(info.shard_count, 2u);
  backend->Stop();
}

}  // namespace
}  // namespace dehealth
