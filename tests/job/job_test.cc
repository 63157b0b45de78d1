// Crash-safe attack job coverage: the checkpointed runner must produce
// output bitwise-identical to the one-shot pipeline no matter where it is
// killed, which faults are injected, or how shard size / thread count
// change between the interrupted run and the resume.

#include "job/runner.h"

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/shutdown.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "index/pipeline.h"
#include "io/file_util.h"
#include "job/manifest.h"
#include "testing/scoped_temp_dir.h"

namespace dehealth {
namespace {

DeHealthConfig JobConfig(const std::string& dir, int shard_size = 3) {
  DeHealthConfig config;
  config.top_k = 5;
  config.refined.learner = LearnerKind::kNearestCentroid;
  // Keeps JobDeathTest's forked children serial. The fixture's
  // BuildUdaGraph has already started the global thread pool, a forked
  // child has none of its workers, and a ParallelFor over more than one
  // thread would wait on them forever.
  config.num_threads = 1;
  config.job_dir = dir;
  config.job_shard_size = shard_size;
  return config;
}

/// The job runner never materializes DeHealthResult::similarity, so
/// equality means: same candidate sets, same filter verdicts, same
/// refined predictions/rejections.
void ExpectSameAttackResult(const DeHealthResult& job,
                            const DeHealthResult& golden) {
  EXPECT_EQ(job.candidates, golden.candidates);
  EXPECT_EQ(job.rejected, golden.rejected);
  EXPECT_EQ(job.refined.predictions, golden.refined.predictions);
  EXPECT_EQ(job.refined.rejected, golden.refined.rejected);
  EXPECT_EQ(job.refined.num_rejected, golden.refined.num_rejected);
  EXPECT_TRUE(job.similarity.empty());
}

/// One shared closed-world scenario (14 anonymized users -> 5 shards of 3)
/// plus the uninterrupted dense golden run (DeHealth::Run) every
/// checkpointed run is compared against.
class JobTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // JobDeathTest shares this fixture; in a run of the whole binary its
    // suite reuses the scenario instead of leaking this one.
    if (golden_ != nullptr) return;
    auto forum = GenerateForum(WebMdLikeConfig(30, 41));
    ASSERT_TRUE(forum.ok());
    auto split = MakeClosedWorldScenario(forum->dataset, 0.5, 13);
    ASSERT_TRUE(split.ok());
    anon_ = new UdaGraph(BuildUdaGraph(split->anonymized));
    aux_ = new UdaGraph(BuildUdaGraph(split->auxiliary));
    auto golden = DeHealth(JobConfig("")).Run(*anon_, *aux_);
    ASSERT_TRUE(golden.ok()) << golden.status().ToString();
    golden_ = new DeHealthResult(std::move(golden).value());
  }

  void TearDown() override {
    FaultInjector::Global().Reset();
    ResetProcessShutdownForTesting();
  }

  static UdaGraph* anon_;
  static UdaGraph* aux_;
  static DeHealthResult* golden_;
};

UdaGraph* JobTest::anon_ = nullptr;
UdaGraph* JobTest::aux_ = nullptr;
DeHealthResult* JobTest::golden_ = nullptr;

// ---------------------------------------------------------------- codecs

TEST_F(JobTest, ManifestRoundTrips) {
  JobManifest manifest;
  manifest.anonymized_fingerprint = 0x1234567890abcdefULL;
  manifest.auxiliary_fingerprint = 42;
  manifest.config_fingerprint = 7;
  manifest.num_users = 30;
  manifest.shard_size = 7;
  auto decoded = DecodeJobManifest(EncodeJobManifest(manifest));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->JobFingerprint(), manifest.JobFingerprint());
  EXPECT_EQ(decoded->num_users, 30u);
  EXPECT_EQ(decoded->shard_size, 7u);
}

TEST_F(JobTest, ManifestRejectsCorruption) {
  std::string bytes = EncodeJobManifest(JobManifest{});
  // Bad magic, truncation at every prefix, and a payload bit flip must all
  // come back as InvalidArgument with a byte offset, never a crash.
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  auto r = DecodeJobManifest(bad_magic, "m.dhjb");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("m.dhjb"), std::string::npos);
  EXPECT_NE(r.status().message().find("byte "), std::string::npos);
  for (size_t len = 0; len < bytes.size(); ++len)
    EXPECT_FALSE(DecodeJobManifest(bytes.substr(0, len)).ok()) << len;
  std::string flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x01;
  EXPECT_FALSE(DecodeJobManifest(flipped).ok());
  std::string future = bytes;
  future[4] = 9;  // version low byte
  EXPECT_EQ(DecodeJobManifest(future).status().code(),
            StatusCode::kUnimplemented);
}

TEST_F(JobTest, ManifestAndShardRejectVersionZero) {
  // A zeroed version field is a damaged file, never parsed as version 1.
  std::string manifest = EncodeJobManifest(JobManifest{});
  manifest[4] = 0;
  auto m = DecodeJobManifest(manifest, "m.dhjb");
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(m.status().message().find("'m.dhjb' (byte 4)"),
            std::string::npos)
      << m.status().ToString();

  JobShard shard;
  shard.phase = JobShard::Phase::kTopK;
  shard.begin = 0;
  shard.end = 1;
  shard.candidates = {{1}};
  auto bytes = EncodeJobShard(shard, /*job_fingerprint=*/10);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[4] = 0;
  EXPECT_EQ(DecodeJobShard(*bytes, 10, JobShard::Phase::kTopK, 0, 1)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(JobTest, ShardRoundTripsPerPhase) {
  const uint64_t fp = 0xfeedULL;
  JobShard topk;
  topk.phase = JobShard::Phase::kTopK;
  topk.begin = 7;
  topk.end = 10;
  topk.candidates = {{3, 1, 4}, {}, {9, 2}};
  auto bytes = EncodeJobShard(topk, fp);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto decoded =
      DecodeJobShard(*bytes, fp, JobShard::Phase::kTopK, 7, 10);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->candidates, topk.candidates);

  JobShard refined;
  refined.phase = JobShard::Phase::kRefined;
  refined.begin = 0;
  refined.end = 3;
  refined.predictions = {5, -1, 0};
  refined.rejected = {false, true, false};
  bytes = EncodeJobShard(refined, fp);
  ASSERT_TRUE(bytes.ok());
  decoded = DecodeJobShard(*bytes, fp, JobShard::Phase::kRefined, 0, 3);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->predictions, refined.predictions);
  EXPECT_EQ(decoded->rejected, refined.rejected);

  JobShard filter;
  filter.phase = JobShard::Phase::kFilter;
  filter.begin = 0;
  filter.end = 2;
  filter.candidates = {{1}, {0, 2}};
  filter.rejected = {true, false};
  bytes = EncodeJobShard(filter, fp);
  ASSERT_TRUE(bytes.ok());
  decoded = DecodeJobShard(*bytes, fp, JobShard::Phase::kFilter, 0, 2);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->candidates, filter.candidates);
  EXPECT_EQ(decoded->rejected, filter.rejected);
}

TEST_F(JobTest, ShardFailsClosedOnAnyIdentityMismatch) {
  JobShard shard;
  shard.phase = JobShard::Phase::kTopK;
  shard.begin = 0;
  shard.end = 2;
  shard.candidates = {{1}, {2}};
  auto bytes = EncodeJobShard(shard, /*job_fingerprint=*/10);
  ASSERT_TRUE(bytes.ok());
  // Wrong job, wrong phase, wrong range: each is InvalidArgument — the
  // runner quarantines and recomputes rather than splicing foreign data.
  EXPECT_FALSE(
      DecodeJobShard(*bytes, 11, JobShard::Phase::kTopK, 0, 2).ok());
  EXPECT_FALSE(
      DecodeJobShard(*bytes, 10, JobShard::Phase::kRefined, 0, 2).ok());
  EXPECT_FALSE(
      DecodeJobShard(*bytes, 10, JobShard::Phase::kTopK, 2, 4).ok());
  EXPECT_TRUE(
      DecodeJobShard(*bytes, 10, JobShard::Phase::kTopK, 0, 2).ok());
}

TEST_F(JobTest, ConfigFingerprintCoversOnlySemanticFields) {
  DeHealthConfig base = JobConfig("job-a", 7);
  DeHealthConfig operational = base;
  // Results are bitwise-independent of these: an interrupted 8-thread run
  // may finish single-threaded, with or without a snapshot file.
  operational.num_threads = 8;
  operational.job_dir = "job-b";
  operational.job_shard_size = 3;
  operational.index_snapshot_path = "x.dhix";
  operational.use_index = true;  // ignored
  EXPECT_EQ(JobConfigFingerprint(base), JobConfigFingerprint(operational));

  DeHealthConfig other_k = base;
  other_k.top_k = 4;
  EXPECT_NE(JobConfigFingerprint(base), JobConfigFingerprint(other_k));
  DeHealthConfig filtered = base;
  filtered.enable_filtering = true;
  EXPECT_NE(JobConfigFingerprint(base), JobConfigFingerprint(filtered));
}

TEST(JobFingerprintTest, PinnedSoExistingJobDirectoriesResume) {
  // The literal values every earlier build computed: a change here would
  // strand the DHJB job directories already on disk, so the encoding
  // (retired fields included) must stay byte-for-byte the same.
  DeHealthConfig config;
  EXPECT_EQ(JobConfigFingerprint(config), 0x65ba5975ced6d223ULL);
  config.use_index = true;
  EXPECT_EQ(JobConfigFingerprint(config), 0x65ba5975ced6d223ULL);
}

// ------------------------------------------------------------ happy path

TEST_F(JobTest, JobMatchesDirectRun) {
  const ScopedTempDir dir;
  auto result = RunDeHealthAttackJob(*anon_, *aux_, JobConfig(dir.path()));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameAttackResult(*result, *golden_);
  EXPECT_TRUE(std::filesystem::exists(dir.File("MANIFEST.dhjb")));
  // 14 users / shard 3 -> 5 topk + 5 refined shards.
  EXPECT_TRUE(
      std::filesystem::exists(dir.File("topk-00000000-00000003.dhsh")));
  EXPECT_TRUE(
      std::filesystem::exists(dir.File("refined-00000012-00000014.dhsh")));

  // A second run answers purely from the durable shards — even if every
  // recompute path is rigged to fail, nothing recomputes.
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("job.phase1:fail:1:0,job.phase2:fail:1:0,"
                             "job.shard_write:fail:1:0")
                  .ok());
  auto resumed = RunDeHealthAttackJob(*anon_, *aux_, JobConfig(dir.path()));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectSameAttackResult(*resumed, *golden_);
}

TEST_F(JobTest, FilteringJobMatchesDirectRun) {
  const ScopedTempDir dir;
  DeHealthConfig config = JobConfig(dir.path());
  config.enable_filtering = true;
  DeHealthConfig direct = config;
  direct.job_dir.clear();
  auto filtered_golden = RunDeHealthAttack(*anon_, *aux_, direct);
  ASSERT_TRUE(filtered_golden.ok());
  auto result = RunDeHealthAttackJob(*anon_, *aux_, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameAttackResult(*result, *filtered_golden);
  EXPECT_TRUE(std::filesystem::exists(dir.File("filter.dhsh")));
}

TEST_F(JobTest, ShardSizeAndThreadCountDoNotChangeAnswers) {
  const ScopedTempDir dir_a;
  const ScopedTempDir dir_b;
  DeHealthConfig a = JobConfig(dir_a.path(), 2);
  a.num_threads = 2;
  DeHealthConfig b = JobConfig(dir_b.path(), 30);
  b.num_threads = 1;
  auto ra = RunDeHealthAttackJob(*anon_, *aux_, a);
  auto rb = RunDeHealthAttackJob(*anon_, *aux_, b);
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  ExpectSameAttackResult(*ra, *golden_);
  ExpectSameAttackResult(*rb, *golden_);
}

TEST_F(JobTest, RawOutParamCarriesUnfilteredCandidates) {
  const ScopedTempDir dir;
  DeHealthConfig config = JobConfig(dir.path());
  config.enable_filtering = true;
  auto job = AttackJob::Open(*anon_, *aux_, config);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  auto bundle = BuildAttackScoreSource(*anon_, *aux_, config);
  ASSERT_TRUE(bundle.ok());
  DeHealthCandidates raw;
  auto state = job->SelectCandidates(*(*bundle)->source, &raw);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  // `raw` is the pre-filter Top-K state (what the golden unfiltered run
  // selected); `state` is post-filter.
  EXPECT_EQ(raw.candidates, golden_->candidates);
  DeHealthConfig direct = config;
  direct.job_dir.clear();
  auto filtered_golden = RunDeHealthAttack(*anon_, *aux_, direct);
  ASSERT_TRUE(filtered_golden.ok());
  EXPECT_EQ(state->candidates, filtered_golden->candidates);
  EXPECT_EQ(state->rejected, filtered_golden->rejected);
}

TEST_F(JobTest, DegradedIndexFallsBackToDenseBitwise) {
  // An unusable snapshot path must not take the attack down: the score
  // source keeps its index in memory, unsaved, with identical answers —
  // and still never forms the dense matrix.
  DeHealthConfig config = JobConfig("");
  config.index_snapshot_path = "/nonexistent_dir/idx.dhix";
  auto bundle = BuildAttackScoreSource(*anon_, *aux_, config);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  EXPECT_TRUE((*bundle)->similarity.empty());
  EXPECT_FALSE(std::filesystem::exists(config.index_snapshot_path));
  auto result = RunDeHealthAttack(*anon_, *aux_, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->candidates, golden_->candidates);
  EXPECT_EQ(result->refined.predictions, golden_->refined.predictions);
}

// ------------------------------------------------------- failure + resume

TEST_F(JobTest, ResumesAfterInjectedFailureAtEveryPhase) {
  // Kill the job at one point per phase (phase-1 compute, shard commit,
  // phase-2 compute, even the manifest write); a clean re-run must finish
  // from the durable prefix with answers identical to the golden run.
  const char* kill_specs[] = {
      "job.manifest_write:fail:1", "job.phase1:fail:3",
      "job.shard_write:enospc:4",  "job.phase2:fail:2",
      "file.write_atomic:enospc:3",
  };
  for (const char* spec : kill_specs) {
    const ScopedTempDir dir;
    ASSERT_TRUE(FaultInjector::Global().Configure(spec).ok());
    auto wounded =
        RunDeHealthAttackJob(*anon_, *aux_, JobConfig(dir.path()));
    ASSERT_FALSE(wounded.ok()) << spec;
    FaultInjector::Global().Reset();
    // Resume under a different thread count: durable shards from the
    // 1-thread run compose bitwise with freshly computed 2-thread ones.
    DeHealthConfig resume = JobConfig(dir.path());
    resume.num_threads = 2;
    auto resumed = RunDeHealthAttackJob(*anon_, *aux_, resume);
    ASSERT_TRUE(resumed.ok())
        << spec << ": " << resumed.status().ToString();
    ExpectSameAttackResult(*resumed, *golden_);
  }
}

TEST_F(JobTest, FilteringJobResumesAcrossFilterFault) {
  // The filter's global range folds from the Top-K shards a run computes;
  // a resume rescans only the loaded ones. A filter fault leaves every
  // Top-K shard durable; a phase-1 fault leaves two, so the resume mixes
  // loaded and computed shards before the filter.
  DeHealthConfig direct = JobConfig("");
  direct.enable_filtering = true;
  auto filtered_golden = DeHealth(direct).Run(*anon_, *aux_);
  ASSERT_TRUE(filtered_golden.ok());
  for (const char* spec : {"job.filter:fail:1", "job.phase1:fail:3"}) {
    const ScopedTempDir dir;
    DeHealthConfig config = JobConfig(dir.path());
    config.enable_filtering = true;
    ASSERT_TRUE(FaultInjector::Global().Configure(spec).ok());
    ASSERT_FALSE(RunDeHealthAttackJob(*anon_, *aux_, config).ok()) << spec;
    FaultInjector::Global().Reset();
    EXPECT_FALSE(std::filesystem::exists(dir.File("filter.dhsh"))) << spec;
    config.num_threads = 2;
    auto resumed = RunDeHealthAttackJob(*anon_, *aux_, config);
    ASSERT_TRUE(resumed.ok()) << spec << ": " << resumed.status().ToString();
    SCOPED_TRACE(spec);
    ExpectSameAttackResult(*resumed, *filtered_golden);
  }
}

TEST_F(JobTest, CorruptShardIsQuarantinedAndRecomputed) {
  const ScopedTempDir dir;
  ASSERT_TRUE(
      RunDeHealthAttackJob(*anon_, *aux_, JobConfig(dir.path())).ok());
  const std::string victim = dir.File("topk-00000003-00000006.dhsh");
  auto bytes = ReadFileToString(victim);
  ASSERT_TRUE(bytes.ok());
  std::string poisoned = *bytes;
  poisoned[poisoned.size() / 2] ^= 0x40;
  ASSERT_TRUE(WriteStringToFile(poisoned, victim).ok());

  auto recovered =
      RunDeHealthAttackJob(*anon_, *aux_, JobConfig(dir.path()));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectSameAttackResult(*recovered, *golden_);
  // The poisoned bytes were preserved for post-mortem, not deleted, and a
  // clean replacement shard was committed in their place.
  EXPECT_TRUE(std::filesystem::exists(victim + ".quarantined"));
  auto rewritten = ReadFileToString(victim);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(*rewritten, *bytes);
}

TEST_F(JobTest, CorruptManifestIsQuarantinedAndRewritten) {
  const ScopedTempDir dir;
  ASSERT_TRUE(
      RunDeHealthAttackJob(*anon_, *aux_, JobConfig(dir.path())).ok());
  const std::string manifest = dir.File("MANIFEST.dhjb");
  ASSERT_TRUE(WriteStringToFile("DHJB garbage", manifest).ok());
  auto recovered =
      RunDeHealthAttackJob(*anon_, *aux_, JobConfig(dir.path()));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectSameAttackResult(*recovered, *golden_);
  EXPECT_TRUE(std::filesystem::exists(manifest + ".quarantined"));
}

TEST_F(JobTest, ManifestMismatchFailsClosed) {
  const ScopedTempDir dir;
  ASSERT_TRUE(
      RunDeHealthAttackJob(*anon_, *aux_, JobConfig(dir.path())).ok());
  DeHealthConfig other = JobConfig(dir.path());
  other.top_k = 4;  // semantic change: different job
  auto r = RunDeHealthAttackJob(*anon_, *aux_, other);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(
      r.status().message().find("different forums, config, or shard size"),
      std::string::npos);
  // Changing only shard size also re-partitions the directory: refuse.
  auto resharded =
      RunDeHealthAttackJob(*anon_, *aux_, JobConfig(dir.path(), 5));
  ASSERT_FALSE(resharded.ok());
  EXPECT_EQ(resharded.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(JobTest, ShutdownRequestReturnsCancelledAndResumes) {
  const ScopedTempDir dir;
  RequestProcessShutdown();
  auto interrupted =
      RunDeHealthAttackJob(*anon_, *aux_, JobConfig(dir.path()));
  ASSERT_FALSE(interrupted.ok());
  EXPECT_EQ(interrupted.status().code(), StatusCode::kCancelled);
  EXPECT_NE(interrupted.status().message().find("re-run"),
            std::string::npos);
  ResetProcessShutdownForTesting();
  auto resumed = RunDeHealthAttackJob(*anon_, *aux_, JobConfig(dir.path()));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectSameAttackResult(*resumed, *golden_);
}

TEST_F(JobTest, RejectsInvalidJobSetups) {
  DeHealthConfig no_dir = JobConfig("");
  EXPECT_EQ(AttackJob::Open(*anon_, *aux_, no_dir).status().code(),
            StatusCode::kInvalidArgument);
  const ScopedTempDir dir;
  DeHealthConfig zero_shard = JobConfig(dir.path(), 0);
  EXPECT_EQ(AttackJob::Open(*anon_, *aux_, zero_shard).status().code(),
            StatusCode::kInvalidArgument);
  // Graph matching is a global assignment problem — it cannot checkpoint
  // per user, so the runner refuses instead of silently degrading.
  DeHealthConfig matching = JobConfig(dir.path());
  matching.selection = CandidateSelection::kGraphMatching;
  auto r = AttackJob::Open(*anon_, *aux_, matching);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

// --------------------------------------------------------- crash + resume

using JobDeathTest = JobTest;

TEST_F(JobDeathTest, KilledJobResumesBitwiseIdentical) {
  // The injected crash is a real _exit(86) mid-job — no destructors, no
  // flushing — exactly like SIGKILL at that instruction. The durable state
  // is whatever WriteStringToFileAtomic committed before the kill.
  const ScopedTempDir dir;
  EXPECT_EXIT(
      {
        Status configured = FaultInjector::Global().Configure(
            "job.phase2:crash:3");
        if (configured.ok()) {
          auto r =
              RunDeHealthAttackJob(*anon_, *aux_, JobConfig(dir.path()));
          (void)r;
        }
      },
      ::testing::ExitedWithCode(kFaultCrashExitCode), "");
  // The child died after committing all 5 topk shards and 2 refined
  // shards; the survivors must be loadable and the resume must finish the
  // remaining 3 shards to the same bytes as the uninterrupted golden run.
  EXPECT_TRUE(
      std::filesystem::exists(dir.File("refined-00000003-00000006.dhsh")));
  EXPECT_FALSE(
      std::filesystem::exists(dir.File("refined-00000006-00000009.dhsh")));
  DeHealthConfig resume = JobConfig(dir.path());
  resume.num_threads = 2;
  auto resumed = RunDeHealthAttackJob(*anon_, *aux_, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectSameAttackResult(*resumed, *golden_);
}

TEST_F(JobDeathTest, CrashDuringAtomicWriteLeavesNoTornShard) {
  const ScopedTempDir dir;
  EXPECT_EXIT(
      {
        Status configured = FaultInjector::Global().Configure(
            "file.write_atomic:crash:4");
        if (configured.ok()) {
          auto r =
              RunDeHealthAttackJob(*anon_, *aux_, JobConfig(dir.path()));
          (void)r;
        }
      },
      ::testing::ExitedWithCode(kFaultCrashExitCode), "");
  // Writes 1-3 (manifest + two topk shards) are durable; write 4 died
  // mid-tmp-file. The target name must not exist — only the torn .tmp —
  // so the resume recomputes that shard instead of trusting torn bytes.
  EXPECT_FALSE(
      std::filesystem::exists(dir.File("topk-00000006-00000009.dhsh")));
  auto resumed = RunDeHealthAttackJob(*anon_, *aux_, JobConfig(dir.path()));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectSameAttackResult(*resumed, *golden_);
}

}  // namespace
}  // namespace dehealth
