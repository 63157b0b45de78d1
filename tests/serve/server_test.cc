#include "serve/server.h"

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "index/pipeline.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "testing/scoped_temp_dir.h"

namespace dehealth {
namespace {

DeHealthConfig FastConfig() {
  DeHealthConfig config;
  config.top_k = 5;
  config.refined.learner = LearnerKind::kNearestCentroid;
  config.num_threads = 2;
  return config;
}

std::vector<int> AllUsers(int n) {
  std::vector<int> users(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) users[static_cast<size_t>(i)] = i;
  return users;
}

/// One shared closed-world scenario; every test compares served answers
/// against the one-shot pipeline (RunDeHealthAttack — what dehealth_cli
/// runs) on the same graphs.
class ServeEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // ServeServerTest shares this fixture; in a run of the whole binary its
    // suite reuses the scenario instead of leaking this one.
    if (aux_ != nullptr) return;
    auto forum = GenerateForum(WebMdLikeConfig(40, 23));
    ASSERT_TRUE(forum.ok());
    auto scenario = MakeClosedWorldScenario(forum->dataset, 0.5, 11);
    ASSERT_TRUE(scenario.ok());
    anon_ = new UdaGraph(BuildUdaGraph(scenario->anonymized));
    aux_ = new UdaGraph(BuildUdaGraph(scenario->auxiliary));
  }

  static StatusOr<std::unique_ptr<QueryEngine>> MakeEngine(
      const DeHealthConfig& config) {
    return QueryEngine::Create(*anon_, *aux_, config);
  }

  static UdaGraph* anon_;
  static UdaGraph* aux_;
};

UdaGraph* ServeEngineTest::anon_ = nullptr;
UdaGraph* ServeEngineTest::aux_ = nullptr;

TEST_F(ServeEngineTest, MatchesOneShotPipeline) {
  const DeHealthConfig config = FastConfig();
  auto golden = RunDeHealthAttack(*anon_, *aux_, config);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  auto engine = MakeEngine(config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const std::vector<int> users = AllUsers((*engine)->num_anonymized());
  auto top_k = (*engine)->TopK(users, 0);
  ASSERT_TRUE(top_k.ok()) << top_k.status().ToString();
  EXPECT_EQ(top_k->candidates, golden->candidates);

  auto refined = (*engine)->Refine(users);
  ASSERT_TRUE(refined.ok()) << refined.status().ToString();
  EXPECT_EQ(refined->predictions, golden->refined.predictions);
  EXPECT_EQ(refined->rejected, golden->refined.rejected);
}

TEST_F(ServeEngineTest, SoloAnswersMatchBatchAnswers) {
  auto engine = MakeEngine(FastConfig());
  ASSERT_TRUE(engine.ok());
  const std::vector<int> batch = {7, 2, 7, 0, 11};  // duplicates allowed
  auto batched = (*engine)->Refine(batch);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_EQ(batched->predictions.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    auto solo = (*engine)->Refine({batch[i]});
    ASSERT_TRUE(solo.ok());
    EXPECT_EQ(solo->predictions[0], batched->predictions[i])
        << "user " << batch[i] << " answered differently solo vs batched";
    EXPECT_EQ(solo->rejected[0], batched->rejected[i]);
  }
}

TEST_F(ServeEngineTest, IndexedEngineMatchesDenseEngine) {
  // The engine scores through the candidate index; the dense reference is
  // DeHealth::Run over the materialized matrix.
  const DeHealthConfig config = FastConfig();
  auto dense = DeHealth(config).Run(*anon_, *aux_);
  auto indexed = MakeEngine(config);
  ASSERT_TRUE(dense.ok());
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  const std::vector<int> users = {0, 3, 9, 14};
  auto indexed_top = (*indexed)->TopK(users, 0);
  ASSERT_TRUE(indexed_top.ok());
  auto indexed_refined = (*indexed)->Refine(users);
  ASSERT_TRUE(indexed_refined.ok());
  for (size_t i = 0; i < users.size(); ++i) {
    const auto u = static_cast<size_t>(users[i]);
    EXPECT_EQ(indexed_top->candidates[i], dense->candidates[u]);
    EXPECT_EQ(indexed_refined->predictions[i], dense->refined.predictions[u]);
  }
}

TEST_F(ServeEngineTest, NonDefaultKMatchesOneShotWithThatK) {
  DeHealthConfig other_k = FastConfig();
  other_k.top_k = 3;
  auto golden = RunDeHealthAttack(*anon_, *aux_, other_k);
  ASSERT_TRUE(golden.ok());
  auto engine = MakeEngine(FastConfig());  // engine still configured K=5
  ASSERT_TRUE(engine.ok());
  const std::vector<int> users = AllUsers((*engine)->num_anonymized());
  auto top3 = (*engine)->TopK(users, 3);
  ASSERT_TRUE(top3.ok());
  EXPECT_EQ(top3->candidates, golden->candidates);
}

TEST_F(ServeEngineTest, FilteredMatchesOneShotFiltering) {
  DeHealthConfig config = FastConfig();
  config.enable_filtering = true;
  auto golden = RunDeHealthAttack(*anon_, *aux_, config);
  ASSERT_TRUE(golden.ok());
  auto engine = MakeEngine(config);
  ASSERT_TRUE(engine.ok());
  const std::vector<int> users = AllUsers((*engine)->num_anonymized());
  auto filtered = (*engine)->Filtered(users);
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  EXPECT_EQ(filtered->candidates, golden->candidates);
  EXPECT_EQ(filtered->rejected, golden->rejected);
  auto refined = (*engine)->Refine(users);
  ASSERT_TRUE(refined.ok());
  EXPECT_EQ(refined->predictions, golden->refined.predictions);
}

TEST_F(ServeEngineTest, FilteredRequiresFilteringEnabled) {
  auto engine = MakeEngine(FastConfig());
  ASSERT_TRUE(engine.ok());
  auto filtered = (*engine)->Filtered({0});
  ASSERT_FALSE(filtered.ok());
  EXPECT_EQ(filtered.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServeEngineTest, OutOfRangeUserIsInvalidArgument) {
  auto engine = MakeEngine(FastConfig());
  ASSERT_TRUE(engine.ok());
  auto bad = (*engine)->TopK({0, (*engine)->num_anonymized()}, 0);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServeEngineTest, JobDirWarmStartIsDurable) {
  const ScopedTempDir job_dir;
  DeHealthConfig config = FastConfig();
  config.job_dir = job_dir.path();
  config.job_shard_size = 7;
  auto golden = RunDeHealthAttack(*anon_, *aux_, FastConfig());
  ASSERT_TRUE(golden.ok());

  auto cold = MakeEngine(config);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const std::vector<int> users = AllUsers((*cold)->num_anonymized());
  auto top_k = (*cold)->TopK(users, 0);
  ASSERT_TRUE(top_k.ok());
  EXPECT_EQ(top_k->candidates, golden->candidates);
  ASSERT_TRUE(std::filesystem::exists(job_dir.File("MANIFEST.dhjb")));

  // Restarting the engine answers phase 1 from the durable shards: even
  // with every recompute path rigged to fail, warm start succeeds.
  ASSERT_TRUE(
      FaultInjector::Global().Configure("job.phase1:fail:1:0").ok());
  auto warm = MakeEngine(config);
  FaultInjector::Global().Reset();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  auto warm_top_k = (*warm)->TopK(users, 0);
  ASSERT_TRUE(warm_top_k.ok());
  EXPECT_EQ(warm_top_k->candidates, golden->candidates);
  auto refined = (*warm)->Refine(users);
  ASSERT_TRUE(refined.ok());
  EXPECT_EQ(refined->predictions, golden->refined.predictions);
}

/// Full client/server loop against the same golden answers.
class ServeServerTest : public ServeEngineTest {};

TEST_F(ServeServerTest, ServedAnswersMatchOneShotPipeline) {
  const DeHealthConfig config = FastConfig();
  auto golden = RunDeHealthAttack(*anon_, *aux_, config);
  ASSERT_TRUE(golden.ok());
  auto engine = MakeEngine(config);
  ASSERT_TRUE(engine.ok());

  ServerConfig server_config;
  QueryServer server(**engine, server_config);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  auto client = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const std::vector<int> users = AllUsers((*engine)->num_anonymized());
  auto top_k = client->TopK(users);
  ASSERT_TRUE(top_k.ok()) << top_k.status().ToString();
  EXPECT_EQ(top_k->candidates, golden->candidates);

  auto refined = client->Refine(users);
  ASSERT_TRUE(refined.ok()) << refined.status().ToString();
  EXPECT_EQ(refined->predictions, golden->refined.predictions);

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_anonymized,
            static_cast<uint64_t>((*engine)->num_anonymized()));
  EXPECT_EQ(stats->default_top_k, 5u);
  EXPECT_GE(stats->requests_total, 2u);
  EXPECT_GE(stats->batches_total, 2u);
  EXPECT_EQ(stats->queries_total, 2 * users.size());

  // Server-side validation: a bad id comes back as the transported error.
  auto bad = client->TopK({-1});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  auto no_filter = client->Filtered({0});
  ASSERT_FALSE(no_filter.ok());
  EXPECT_EQ(no_filter.status().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(client->RequestShutdown().ok());
  server.Wait();
  EXPECT_TRUE(server.ShuttingDown());
}

TEST_F(ServeServerTest, MetricsQueryReturnsPrometheusExposition) {
  auto engine = MakeEngine(FastConfig());
  ASSERT_TRUE(engine.ok());
  QueryServer server(**engine, ServerConfig());
  ASSERT_TRUE(server.Start().ok());

  auto client = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Refine({0, 1, 2}).ok());

  auto metrics = client->Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  // Well-formed text exposition with the serve metrics present and live.
  EXPECT_NE(metrics->find("# TYPE dehealth_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(metrics->find("dehealth_serve_queries_total 3\n"),
            std::string::npos);
  EXPECT_NE(metrics->find("# TYPE dehealth_serve_latency_micros histogram"),
            std::string::npos);
  EXPECT_NE(metrics->find("dehealth_serve_latency_micros_bucket{le=\"+Inf\"}"),
            std::string::npos);

  // kMetrics bypasses the queue, like kStats, and counts as a request.
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->requests_total, 2u);

  server.Shutdown();
  server.Wait();
}

TEST_F(ServeServerTest, FullQueueAnswersOverloadedInsteadOfStalling) {
  auto engine = MakeEngine(FastConfig());
  ASSERT_TRUE(engine.ok());
  ServerConfig server_config;
  server_config.max_queue = 0;  // admission rejects every query
  QueryServer server(**engine, server_config);
  ASSERT_TRUE(server.Start().ok());

  auto client = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto answer = client->TopK({0, 1});
  ASSERT_FALSE(answer.ok());
  // Typed as Unavailable so retry policies know overload is transient.
  EXPECT_EQ(answer.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(answer.status().message().find("overloaded"),
            std::string::npos);

  // kStats bypasses the queue: observable even while overloaded.
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->overload_rejections, 1u);

  server.Shutdown();
  server.Wait();
}

TEST_F(ServeServerTest, ExpiredDeadlineAnswersTimeout) {
  auto engine = MakeEngine(FastConfig());
  ASSERT_TRUE(engine.ok());
  QueryServer server(**engine, ServerConfig());
  ASSERT_TRUE(server.Start().ok());

  auto client = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  // 1e-9 ms rounds to a zero-length deadline: expired the moment the
  // executor looks, deterministically.
  auto answer = client->Refine({0}, /*timeout_ms=*/1e-9);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(answer.status().message().find("deadline"), std::string::npos);

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->deadline_expirations, 1u);

  server.Shutdown();
  server.Wait();
}

TEST(RetryPolicyTest, ClampSanitizesEveryField) {
  RetryPolicy bad;
  bad.max_attempts = 0;
  bad.initial_backoff_ms = -50;
  bad.max_backoff_ms = -1;
  bad.multiplier = 0.5;  // shrinking backoff would converge on a spin
  RetryPolicy clamped = ClampRetryPolicy(bad);
  EXPECT_EQ(clamped.max_attempts, 1);
  EXPECT_EQ(clamped.initial_backoff_ms, 0);
  EXPECT_GE(clamped.max_backoff_ms, clamped.initial_backoff_ms);
  EXPECT_GE(clamped.multiplier, 1.0);

  // NaN multiplier must not propagate through std::max-style comparisons.
  RetryPolicy nan_policy;
  nan_policy.multiplier = std::nan("");
  EXPECT_EQ(ClampRetryPolicy(nan_policy).multiplier, 1.0);

  // max < initial is raised to initial, never inverted into a shrinking
  // window.
  RetryPolicy inverted;
  inverted.initial_backoff_ms = 400;
  inverted.max_backoff_ms = 10;
  EXPECT_EQ(ClampRetryPolicy(inverted).max_backoff_ms, 400);

  // A sane policy passes through untouched.
  RetryPolicy sane;
  sane.max_attempts = 5;
  sane.initial_backoff_ms = 20;
  sane.max_backoff_ms = 2000;
  sane.multiplier = 3.0;
  RetryPolicy same = ClampRetryPolicy(sane);
  EXPECT_EQ(same.max_attempts, 5);
  EXPECT_EQ(same.initial_backoff_ms, 20);
  EXPECT_EQ(same.max_backoff_ms, 2000);
  EXPECT_EQ(same.multiplier, 3.0);
}

TEST(RetryPolicyTest, BackoffScheduleIsBoundedAndDeterministic) {
  RetryPolicy retry;
  retry.initial_backoff_ms = 100;
  retry.max_backoff_ms = 1000;
  retry.multiplier = 2.0;
  retry.seed = 3;

  // Attempt 2 backs off [50, 100] (jitter halves at most), attempt 3
  // [100, 200], and the schedule caps at max_backoff_ms forever after.
  const int second = RetryBackoffMs(retry, 2);
  EXPECT_GE(second, 50);
  EXPECT_LE(second, 100);
  EXPECT_EQ(second, RetryBackoffMs(retry, 2));  // pure function
  const int third = RetryBackoffMs(retry, 3);
  EXPECT_GE(third, 100);
  EXPECT_LE(third, 200);
  // Base backoff is 100 * 2^(attempt-2), so attempt 6 (1600) is the first
  // to hit the 1000 cap; from there the jittered schedule stays in
  // [500, 1000] forever (no overflow spiral at large attempt counts).
  for (int attempt = 6; attempt < 64; ++attempt) {
    const int backoff = RetryBackoffMs(retry, attempt);
    EXPECT_GE(backoff, 500);
    EXPECT_LE(backoff, 1000);
  }

  // Different seeds decorrelate the jitter of a retrying herd.
  RetryPolicy other = retry;
  other.seed = 77;
  bool differs = false;
  for (int attempt = 2; attempt < 10 && !differs; ++attempt)
    differs = RetryBackoffMs(retry, attempt) != RetryBackoffMs(other, attempt);
  EXPECT_TRUE(differs);
}

TEST(RetryPolicyTest, DegenerateBackoffsNeverGoNegativeOrSpin) {
  // The regression this guards: non-positive backoff fields used to reach
  // the sleep call unclamped, so a huge attempt count with multiplier < 1
  // or negative initial backoff could spin with zero (or negative) sleeps.
  RetryPolicy degenerate;
  degenerate.initial_backoff_ms = -10;
  degenerate.max_backoff_ms = -10;
  degenerate.multiplier = 0.0;
  for (int attempt = 2; attempt < 40; ++attempt) {
    const int backoff = RetryBackoffMs(degenerate, attempt);
    EXPECT_GE(backoff, 0);
    EXPECT_LE(backoff, 0);  // clamped max is 0: bounded, not negative
  }

  // multiplier < 1 with a large max must still grow toward max, not
  // shrink toward a zero-delay spin.
  RetryPolicy shrinking;
  shrinking.initial_backoff_ms = 100;
  shrinking.max_backoff_ms = 1000;
  shrinking.multiplier = 0.25;
  EXPECT_GE(RetryBackoffMs(shrinking, 10), 50);  // >= jittered initial
}

TEST_F(ServeServerTest, ConnectRetriesTransientFailures) {
  auto engine = MakeEngine(FastConfig());
  ASSERT_TRUE(engine.ok());
  QueryServer server(**engine, ServerConfig());
  ASSERT_TRUE(server.Start().ok());

  // Fail-fast is the default: one injected connection reset kills Connect.
  ASSERT_TRUE(
      FaultInjector::Global().Configure("socket.connect:reset:1").ok());
  auto no_retry = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_FALSE(no_retry.ok());
  EXPECT_EQ(no_retry.status().code(), StatusCode::kUnavailable);

  // With a retry budget the second attempt lands; backoff is bounded and
  // deterministic (jitter is a pure function of seed and attempt).
  ASSERT_TRUE(
      FaultInjector::Global().Configure("socket.connect:reset:1").ok());
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.initial_backoff_ms = 1;
  auto client = QueryClient::Connect("127.0.0.1", server.port(), retry);
  FaultInjector::Global().Reset();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->TopK({0}).ok());

  server.Shutdown();
  server.Wait();
}

TEST_F(ServeServerTest, OverloadedAnswersAreRetried) {
  auto engine = MakeEngine(FastConfig());
  ASSERT_TRUE(engine.ok());
  ServerConfig server_config;
  server_config.max_queue = 0;  // every query is rejected as overloaded
  QueryServer server(**engine, server_config);
  ASSERT_TRUE(server.Start().ok());

  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.initial_backoff_ms = 1;
  auto client = QueryClient::Connect("127.0.0.1", server.port(), retry);
  ASSERT_TRUE(client.ok());
  auto answer = client->TopK({0});
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kUnavailable);
  // The rejection count proves the client really resent the query once per
  // attempt — overload keeps the connection, so all three rode one socket.
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->overload_rejections, 3u);

  server.Shutdown();
  server.Wait();
}

TEST_F(ServeServerTest, QueriesAfterShutdownAreRefused) {
  auto engine = MakeEngine(FastConfig());
  ASSERT_TRUE(engine.ok());
  QueryServer server(**engine, ServerConfig());
  ASSERT_TRUE(server.Start().ok());
  auto client = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->RequestShutdown().ok());
  server.Wait();
  // The drained server is gone: new connections are refused.
  auto late = QueryClient::Connect("127.0.0.1", server.port());
  if (late.ok()) {
    auto answer = late->TopK({0});
    EXPECT_FALSE(answer.ok());
  }
}

}  // namespace
}  // namespace dehealth
