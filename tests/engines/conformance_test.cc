// Shared conformance suite every attack engine must pass — structural,
// blind, and community alike, all through BuildAttackScoreSource (the one
// place every score-source mode meets):
//   - bitwise-identical scores and candidate sets for 1/4/8 threads;
//   - structural index answers bitwise-equal to the dense structural
//     matrix, and the matrix-backed engines rejecting --index-path;
//   - checkpointed job runs (fresh AND resumed-from-complete) equal to
//     the one-shot pipeline;
//   - a job directory written under one engine fails closed under
//     another;
//   - empty and singleton universes handled without faults.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "index/pipeline.h"
#include "job/runner.h"
#include "testing/scoped_temp_dir.h"

namespace dehealth {
namespace {

DeHealthConfig EngineConfig(EngineKind engine, int num_threads = 1) {
  DeHealthConfig config;
  config.engine = engine;
  config.top_k = 5;
  config.num_threads = num_threads;
  config.refined.learner = LearnerKind::kNearestCentroid;
  return config;
}

/// One small closed-world scenario shared by every engine's run.
class EngineConformanceTest
    : public ::testing::TestWithParam<EngineKind> {
 protected:
  static void SetUpTestSuite() {
    auto forum = GenerateForum(WebMdLikeConfig(40, 23));
    ASSERT_TRUE(forum.ok());
    auto scenario = MakeClosedWorldScenario(forum->dataset, 0.5, 11);
    ASSERT_TRUE(scenario.ok());
    anon_ = new UdaGraph(BuildUdaGraph(scenario->anonymized));
    aux_ = new UdaGraph(BuildUdaGraph(scenario->auxiliary));
  }

  static UdaGraph* anon_;
  static UdaGraph* aux_;
};

UdaGraph* EngineConformanceTest::anon_ = nullptr;
UdaGraph* EngineConformanceTest::aux_ = nullptr;

void ExpectSameAttackResult(const DeHealthResult& a,
                            const DeHealthResult& b) {
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.refined.predictions, b.refined.predictions);
  EXPECT_EQ(a.refined.rejected, b.refined.rejected);
}

TEST_P(EngineConformanceTest, ScoresBitwiseIdenticalAcrossThreadCounts) {
  auto one = BuildAttackScoreSource(*anon_, *aux_,
                                    EngineConfig(GetParam(), 1));
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  for (const int threads : {4, 8}) {
    auto many = BuildAttackScoreSource(*anon_, *aux_,
                                       EngineConfig(GetParam(), threads));
    ASSERT_TRUE(many.ok()) << many.status().ToString();
    const CandidateSource& a = *(*one)->source;
    const CandidateSource& b = *(*many)->source;
    ASSERT_EQ(a.num_anonymized(), anon_->num_users());
    ASSERT_EQ(b.num_anonymized(), a.num_anonymized());
    std::vector<double> scratch_a, scratch_b;
    for (int u = 0; u < a.num_anonymized(); ++u)
      ASSERT_EQ(a.Row(u, &scratch_a), b.Row(u, &scratch_b))
          << "row " << u << " differs at " << threads << " threads";
  }
}

TEST_P(EngineConformanceTest, TopKIdenticalAcrossThreadCounts) {
  auto source = BuildAttackScoreSource(*anon_, *aux_,
                                       EngineConfig(GetParam()));
  ASSERT_TRUE(source.ok());
  auto serial = (*source)->source->TopK(5, 1);
  ASSERT_TRUE(serial.ok());
  for (const int threads : {4, 8}) {
    auto parallel = (*source)->source->TopK(5, threads);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(*serial, *parallel);
  }
}

TEST_P(EngineConformanceTest, ShardedAnswersEqualUnsharded) {
  // Fleet slices are checked against the whole index in
  // tests/shard/sharded_source_test.cc; here the whole index must answer
  // bitwise what the dense structural matrix answers.
  if (GetParam() != EngineKind::kStructural) {
    // The matrix-backed engines have no index: --index-path is a config
    // error.
    DeHealthConfig config = EngineConfig(GetParam(), 2);
    config.index_snapshot_path = "unused.dhix";
    auto indexed = BuildAttackScoreSource(*anon_, *aux_, config);
    ASSERT_FALSE(indexed.ok());
    EXPECT_EQ(indexed.status().code(), StatusCode::kInvalidArgument);
    return;
  }
  const DeHealthConfig config = EngineConfig(GetParam(), 2);
  const std::vector<std::vector<double>> matrix =
      StructuralSimilarity(*anon_, *aux_, config.similarity).ComputeMatrix();
  const DenseCandidateSource dense(matrix);
  auto golden = dense.TopK(5, 2);
  ASSERT_TRUE(golden.ok());
  const std::vector<int> probe = {0, 3, anon_->num_users() - 1};
  auto golden_probe = dense.TopKForUsers(probe, 5, 2, nullptr);
  ASSERT_TRUE(golden_probe.ok());
  auto indexed = BuildAttackScoreSource(*anon_, *aux_, config);
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  EXPECT_TRUE((*indexed)->similarity.empty());  // the matrix is never formed
  auto got = (*indexed)->source->TopK(5, 2);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*golden, *got);
  auto got_probe = (*indexed)->source->TopKForUsers(probe, 5, 2, nullptr);
  ASSERT_TRUE(got_probe.ok());
  EXPECT_EQ(*golden_probe, *got_probe);
}

TEST_P(EngineConformanceTest, FullAttackIdenticalAcrossThreadCounts) {
  auto serial = RunDeHealthAttack(*anon_, *aux_,
                                  EngineConfig(GetParam(), 1));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto parallel = RunDeHealthAttack(*anon_, *aux_,
                                    EngineConfig(GetParam(), 8));
  ASSERT_TRUE(parallel.ok());
  ExpectSameAttackResult(*serial, *parallel);
}

TEST_P(EngineConformanceTest, CheckpointedJobEqualsOneShotAndResumes) {
  auto golden = RunDeHealthAttack(*anon_, *aux_, EngineConfig(GetParam()));
  ASSERT_TRUE(golden.ok());

  const ScopedTempDir dir;
  DeHealthConfig job_config = EngineConfig(GetParam());
  job_config.job_dir = dir.path();
  job_config.job_shard_size = 3;
  auto fresh = RunDeHealthAttackJob(*anon_, *aux_, job_config);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ExpectSameAttackResult(*fresh, *golden);

  // Re-running over the completed directory is a pure resume: every shard
  // loads from disk, and the output must not change — with a different
  // thread count, to boot.
  job_config.num_threads = 4;
  auto resumed = RunDeHealthAttackJob(*anon_, *aux_, job_config);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectSameAttackResult(*resumed, *golden);
}

TEST_P(EngineConformanceTest, JobDirOfAnotherEngineFailsClosed) {
  const ScopedTempDir dir;
  DeHealthConfig job_config = EngineConfig(GetParam());
  job_config.job_dir = dir.path();
  ASSERT_TRUE(RunDeHealthAttackJob(*anon_, *aux_, job_config).ok());
  // Same forums, same knobs, different engine: the config fingerprint
  // must differ, so the resume refuses to splice two engines' shards.
  for (const EngineKind other : AllEngineKinds()) {
    if (other == GetParam()) continue;
    DeHealthConfig cross = job_config;
    cross.engine = other;
    auto resumed = RunDeHealthAttackJob(*anon_, *aux_, cross);
    ASSERT_FALSE(resumed.ok())
        << EngineKindName(other) << " resumed "
        << EngineKindName(GetParam()) << "'s job directory";
    EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST_P(EngineConformanceTest, EngineSeedIsPartOfTheJobFingerprint) {
  // engine_seed shapes non-structural results, so two seeds must never
  // share a job directory; for structural it is inert and must NOT
  // invalidate pre-engine directories (the fingerprint ignores it).
  const ScopedTempDir dir;
  DeHealthConfig job_config = EngineConfig(GetParam());
  job_config.job_dir = dir.path();
  ASSERT_TRUE(RunDeHealthAttackJob(*anon_, *aux_, job_config).ok());
  DeHealthConfig reseeded = job_config;
  reseeded.engine_seed = 7;
  auto resumed = RunDeHealthAttackJob(*anon_, *aux_, reseeded);
  if (GetParam() == EngineKind::kStructural) {
    EXPECT_TRUE(resumed.ok()) << resumed.status().ToString();
  } else {
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST_P(EngineConformanceTest, EmptyUniversesProduceEmptySource) {
  const UdaGraph empty = BuildUdaGraph(ForumDataset{});
  auto source =
      BuildAttackScoreSource(empty, empty, EngineConfig(GetParam()));
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ((*source)->source->num_anonymized(), 0);
  EXPECT_EQ((*source)->source->num_auxiliary(), 0);
}

TEST_P(EngineConformanceTest, SingletonUniversesScoreOnePair) {
  ForumDataset tiny;
  tiny.num_users = 1;
  tiny.num_threads = 1;
  tiny.posts.push_back(Post{0, 0, "my back aches after the long shift"});
  const UdaGraph graph = BuildUdaGraph(tiny);
  auto source =
      BuildAttackScoreSource(graph, graph, EngineConfig(GetParam()));
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ((*source)->source->num_anonymized(), 1);
  EXPECT_EQ((*source)->source->num_auxiliary(), 1);
  // Score scales differ per engine (the structural kernel is a sum of
  // components, not a unit-interval similarity); the contract here is
  // only that a 1×1 universe scores without faulting.
  const double score = (*source)->source->Score(0, 0);
  EXPECT_TRUE(std::isfinite(score));
  EXPECT_GE(score, 0.0);
  auto top = (*source)->source->TopK(5, 1);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 1u);
  EXPECT_EQ((*top)[0], std::vector<int>{0});
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineConformanceTest,
    ::testing::ValuesIn(AllEngineKinds()),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      return std::string(EngineKindName(info.param));
    });

}  // namespace
}  // namespace dehealth
