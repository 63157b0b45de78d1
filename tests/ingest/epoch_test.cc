// EpochHandler semantics: staged segments leave served answers
// bitwise-stable, a seal swaps epochs without failing concurrent queries,
// and every refusal path (bad shard identity, stale parent, corrupt file)
// fails closed while the old epoch keeps serving.

#include "ingest/epoch.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/uda_graph.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "ingest/segment.h"
#include "ingest/state.h"
#include "serve/engine.h"
#include "testing/scoped_temp_dir.h"

namespace dehealth {
namespace ingest {
namespace {

struct Fixture {
  ForumDataset anonymized;
  ForumDataset base;          // aux prefix the server boots on
  std::vector<Post> tail;     // aux posts that arrive later
  ForumDataset full;          // base + tail
};

Fixture MakeFixture(int num_users, uint64_t seed) {
  ForumConfig config;
  config.num_users = num_users;
  config.seed = seed;
  config.style.vocabulary_size = 300;
  auto forum = GenerateForum(config);
  EXPECT_TRUE(forum.ok());
  auto split = MakeClosedWorldScenario(forum->dataset, 0.5, 5);
  EXPECT_TRUE(split.ok());

  Fixture f;
  f.anonymized = std::move(split->anonymized);
  f.full = split->auxiliary;
  const size_t cut = f.full.posts.size() / 2;
  f.base.num_users = f.full.num_users;
  f.base.num_threads = f.full.num_threads;
  f.base.posts.assign(f.full.posts.begin(),
                      f.full.posts.begin() + static_cast<long>(cut));
  f.tail.assign(f.full.posts.begin() + static_cast<long>(cut),
                f.full.posts.end());
  return f;
}

DeHealthConfig SmallConfig() {
  DeHealthConfig config;
  config.top_k = 3;
  config.num_threads = 2;
  return config;
}

std::vector<int> AllUsers(const QueryHandler& handler) {
  std::vector<int> users(static_cast<size_t>(handler.num_anonymized()));
  for (size_t i = 0; i < users.size(); ++i) users[i] = static_cast<int>(i);
  return users;
}

std::string Witness(const QueryHandler& handler) {
  auto answer = handler.TopKScored(AllUsers(handler), 3);
  EXPECT_TRUE(answer.ok()) << answer.status().ToString();
  std::string witness;
  for (const auto& list : answer->candidates)
    for (const ScoredUser& c : list) {
      uint64_t bits = 0;
      __builtin_memcpy(&bits, &c.score, sizeof(bits));
      witness += std::to_string(c.user) + ":" + std::to_string(bits) + " ";
    }
  return witness;
}

/// A segment advancing `base` by `tail`, written to `path`.
DeltaSegment CutTailSegment(const Fixture& f, const std::string& path) {
  IngestState state = IngestState::FromDataset(f.base);
  auto segment = CutSegment(&state, f.tail);
  EXPECT_TRUE(segment.ok()) << segment.status().ToString();
  EXPECT_TRUE(WriteSegmentVerified(*segment, path).ok());
  return std::move(segment).value();
}

std::unique_ptr<EpochHandler> MakeHandler(const Fixture& f,
                                          DeHealthConfig config) {
  auto handler = EpochHandler::Create(BuildUdaGraph(f.anonymized), f.base,
                                      std::move(config));
  EXPECT_TRUE(handler.ok()) << handler.status().ToString();
  return std::move(handler).value();
}

TEST(EpochHandlerTest, BootEpochMatchesPlainEngine) {
  const Fixture f = MakeFixture(12, 7);
  auto handler = MakeHandler(f, SmallConfig());
  auto engine = QueryEngine::Create(BuildUdaGraph(f.anonymized),
                                    BuildUdaGraph(f.base), SmallConfig());
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(Witness(*handler), Witness(**engine));
  EXPECT_EQ(handler->epoch_seq(), 0u);
  EXPECT_EQ(handler->staged_segments(), 0u);
  EXPECT_EQ(handler->ShardInfo().epoch_seq, 0u);
}

TEST(EpochHandlerTest, StagedSegmentLeavesAnswersBitwiseStable) {
  const Fixture f = MakeFixture(12, 7);
  const ScopedTempDir tmp;
  const std::string segment_file = tmp.File("epoch_staged.dhsg");
  CutTailSegment(f, segment_file);
  auto handler = MakeHandler(f, SmallConfig());

  const std::string before = Witness(*handler);
  ASSERT_TRUE(handler->LoadSegment(segment_file).ok());
  EXPECT_EQ(handler->staged_segments(), 1u);
  EXPECT_EQ(handler->epoch_seq(), 0u);
  // Staging is invisible to queries until the seal.
  EXPECT_EQ(Witness(*handler), before);
}

TEST(EpochHandlerTest, SealSwapsToTheGrownUniverse) {
  const Fixture f = MakeFixture(12, 7);
  const ScopedTempDir tmp;
  const std::string segment_file = tmp.File("epoch_seal.dhsg");
  CutTailSegment(f, segment_file);
  auto handler = MakeHandler(f, SmallConfig());
  ASSERT_TRUE(handler->LoadSegment(segment_file).ok());
  ASSERT_TRUE(handler->SealEpoch().ok());
  EXPECT_EQ(handler->epoch_seq(), 1u);
  EXPECT_EQ(handler->staged_segments(), 0u);

  // The sealed epoch answers exactly like an engine built from scratch
  // over the full dataset.
  auto full_engine = QueryEngine::Create(
      BuildUdaGraph(f.anonymized), BuildUdaGraph(f.full), SmallConfig());
  ASSERT_TRUE(full_engine.ok());
  EXPECT_EQ(Witness(*handler), Witness(**full_engine));
  // The universe fingerprint moved — this is what the router detects.
  EXPECT_EQ(handler->ShardInfo().universe_fingerprint,
            (*full_engine)->ShardInfo().universe_fingerprint);
}

TEST(EpochHandlerTest, SealWithoutStagedSegmentsStillIncrementsEpoch) {
  const Fixture f = MakeFixture(10, 9);
  auto handler = MakeHandler(f, SmallConfig());
  const std::string before = Witness(*handler);
  ASSERT_TRUE(handler->SealEpoch().ok());
  EXPECT_EQ(handler->epoch_seq(), 1u);
  EXPECT_EQ(Witness(*handler), before);
}

TEST(EpochHandlerTest, MissingSegmentFileIsNotFound) {
  const Fixture f = MakeFixture(10, 9);
  auto handler = MakeHandler(f, SmallConfig());
  const ScopedTempDir tmp;
  Status loaded = handler->LoadSegment(tmp.File("no_such_segment.dhsg"));
  EXPECT_EQ(loaded.code(), StatusCode::kNotFound);
  EXPECT_EQ(handler->staged_segments(), 0u);
}

TEST(EpochHandlerTest, CorruptSegmentIsQuarantined) {
  const Fixture f = MakeFixture(10, 9);
  const ScopedTempDir tmp;
  const std::string segment_file = tmp.File("epoch_corrupt.dhsg");
  CutTailSegment(f, segment_file);
  // Poison one payload byte on disk.
  {
    std::ifstream in(segment_file, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 16u);
    bytes[16] = static_cast<char>(bytes[16] ^ 0x40);
    std::ofstream out(segment_file,
                      std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  auto handler = MakeHandler(f, SmallConfig());
  EXPECT_FALSE(handler->LoadSegment(segment_file).ok());
  // The corrupt file was moved aside; the server keeps serving.
  std::ifstream original(segment_file);
  EXPECT_FALSE(original.good());
  std::ifstream quarantined(segment_file + ".quarantined");
  EXPECT_TRUE(quarantined.good());
  EXPECT_EQ(handler->staged_segments(), 0u);
  EXPECT_TRUE(handler->TopKScored(AllUsers(*handler), 3).ok());
}

// The high-severity integrity case: a segment that decodes cleanly but
// whose content does not match its own result manifest. Apply must roll
// the staging state back, a later seal must not change served answers
// (the bad posts never reach an epoch), and the chain must still accept
// the honest segment afterwards.
TEST(EpochHandlerTest, LyingSegmentIsRolledBackAndSealStaysStable) {
  const Fixture f = MakeFixture(12, 7);
  const ScopedTempDir tmp;
  const std::string liar_file = tmp.File("epoch_liar.dhsg");
  const std::string good_file = tmp.File("epoch_liar_good.dhsg");
  DeltaSegment good = CutTailSegment(f, good_file);
  // Valid frame (magic/version/checksum all fine), lying payload: the
  // result fingerprint claims a state the posts do not produce.
  DeltaSegment liar = good;
  liar.result_fingerprint ^= 1;
  ASSERT_TRUE(SaveSegmentFile(liar, liar_file).ok());

  auto handler = MakeHandler(f, SmallConfig());
  const std::string before = Witness(*handler);
  Status loaded = handler->LoadSegment(liar_file);
  EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(handler->staged_segments(), 0u);
  // The lying file is corrupt evidence: quarantined like an undecodable one.
  std::ifstream original(liar_file);
  EXPECT_FALSE(original.good());
  std::ifstream quarantined(liar_file + ".quarantined");
  EXPECT_TRUE(quarantined.good());

  // Sealing the rolled-back staging state changes nothing: the poisoned
  // posts were discarded, so the new epoch answers exactly like the old.
  ASSERT_TRUE(handler->SealEpoch().ok());
  EXPECT_EQ(Witness(*handler), before);

  // The rollback restored the parent state bitwise: the honest segment
  // still applies and seals to the same universe as a from-scratch build.
  ASSERT_TRUE(handler->LoadSegment(good_file).ok());
  ASSERT_TRUE(handler->SealEpoch().ok());
  auto full_engine = QueryEngine::Create(
      BuildUdaGraph(f.anonymized), BuildUdaGraph(f.full), SmallConfig());
  ASSERT_TRUE(full_engine.ok());
  EXPECT_EQ(Witness(*handler), Witness(**full_engine));
}

// kLoadSegment paths come from unauthenticated clients: naming a file
// that was never a DHSG segment must refuse WITHOUT renaming it aside —
// quarantining it would let a typo'd path move the server's own
// dataset/snapshot/log files.
TEST(EpochHandlerTest, NonSegmentFileIsRefusedButNotQuarantined) {
  const Fixture f = MakeFixture(10, 9);
  const ScopedTempDir tmp;
  const std::string not_a_segment = tmp.File("epoch_not_a_segment.jsonl");
  {
    std::ofstream out(not_a_segment, std::ios::binary);
    out << "{\"user_id\": 0, \"thread_id\": 0, \"text\": \"hello\"}\n";
  }
  auto handler = MakeHandler(f, SmallConfig());
  Status loaded = handler->LoadSegment(not_a_segment);
  EXPECT_FALSE(loaded.ok());
  // The file is untouched, exactly where it was.
  std::ifstream original(not_a_segment);
  EXPECT_TRUE(original.good());
  std::ifstream quarantined(not_a_segment + ".quarantined");
  EXPECT_FALSE(quarantined.good());
  EXPECT_EQ(handler->staged_segments(), 0u);
}

TEST(EpochHandlerTest, WrongShardIdentityIsRefused) {
  const Fixture f = MakeFixture(10, 9);
  const ScopedTempDir tmp;
  const std::string segment_file = tmp.File("epoch_wrong_shard.dhsg");
  IngestState state = IngestState::FromDataset(f.base);
  auto segment = CutSegment(&state, f.tail, 0, 0, /*shard_index=*/2,
                            /*shard_count=*/4);
  ASSERT_TRUE(segment.ok());
  ASSERT_TRUE(WriteSegmentVerified(*segment, segment_file).ok());

  // An unsharded server only accepts universal (0, 1) segments.
  auto handler = MakeHandler(f, SmallConfig());
  Status loaded = handler->LoadSegment(segment_file);
  EXPECT_EQ(loaded.code(), StatusCode::kFailedPrecondition);

  // The matching slice accepts the same file.
  DeHealthConfig sliced = SmallConfig();
  sliced.shard_index = 2;
  sliced.shard_count = 4;
  auto slice_handler = MakeHandler(f, sliced);
  Status slice_loaded = slice_handler->LoadSegment(segment_file);
  EXPECT_TRUE(slice_loaded.ok()) << slice_loaded.ToString();
}

TEST(EpochHandlerTest, StaleSegmentIsRefusedAndStagingSurvives) {
  const Fixture f = MakeFixture(10, 9);
  const ScopedTempDir tmp;
  const std::string segment_file = tmp.File("epoch_stale.dhsg");
  CutTailSegment(f, segment_file);
  auto handler = MakeHandler(f, SmallConfig());
  ASSERT_TRUE(handler->LoadSegment(segment_file).ok());
  // Applying the same segment again: its parent is the pre-apply state.
  Status again = handler->LoadSegment(segment_file);
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(handler->staged_segments(), 1u);
  // The once-applied staging still seals cleanly.
  ASSERT_TRUE(handler->SealEpoch().ok());
  EXPECT_EQ(handler->epoch_seq(), 1u);
}

TEST(EpochHandlerTest, AutoSealPostsThresholdSealsInsideTheLoad) {
  const Fixture f = MakeFixture(12, 7);
  const ScopedTempDir tmp;
  const std::string segment_file = tmp.File("epoch_auto_posts.dhsg");
  const DeltaSegment segment = CutTailSegment(f, segment_file);
  ASSERT_GT(segment.posts.size(), 0u);

  auto handler = MakeHandler(f, SmallConfig());
  AutoSealPolicy policy;
  policy.posts_threshold = static_cast<int>(segment.posts.size());
  handler->ConfigureAutoSeal(policy);

  // The load that reaches the threshold seals before it returns: the
  // caller's post-op ShardInfo already shows the new epoch.
  ASSERT_TRUE(handler->LoadSegment(segment_file).ok());
  EXPECT_EQ(handler->epoch_seq(), 1u);
  EXPECT_EQ(handler->staged_segments(), 0u);

  // And the sealed epoch answers exactly like a manual-seal server.
  auto full_engine = QueryEngine::Create(
      BuildUdaGraph(f.anonymized), BuildUdaGraph(f.full), SmallConfig());
  ASSERT_TRUE(full_engine.ok());
  EXPECT_EQ(Witness(*handler), Witness(**full_engine));
}

TEST(EpochHandlerTest, AutoSealBelowPostsThresholdStaysStaged) {
  const Fixture f = MakeFixture(12, 7);
  const ScopedTempDir tmp;
  const std::string segment_file = tmp.File("epoch_auto_below.dhsg");
  const DeltaSegment segment = CutTailSegment(f, segment_file);

  auto handler = MakeHandler(f, SmallConfig());
  AutoSealPolicy policy;
  policy.posts_threshold = static_cast<int>(segment.posts.size()) + 1;
  handler->ConfigureAutoSeal(policy);

  const std::string before = Witness(*handler);
  ASSERT_TRUE(handler->LoadSegment(segment_file).ok());
  EXPECT_EQ(handler->epoch_seq(), 0u);
  EXPECT_EQ(handler->staged_segments(), 1u);
  EXPECT_EQ(Witness(*handler), before);  // staged, invisible, unsealed
}

TEST(EpochHandlerTest, AutoSealAgeThresholdSealsOnTheInjectedClock) {
  const Fixture f = MakeFixture(12, 7);
  const ScopedTempDir tmp;
  const std::string segment_file = tmp.File("epoch_auto_age.dhsg");
  CutTailSegment(f, segment_file);

  auto handler = MakeHandler(f, SmallConfig());
  int64_t now_ms = 1000;
  AutoSealPolicy policy;
  policy.secs_threshold = 5;
  policy.now_ms = [&now_ms] { return now_ms; };
  handler->ConfigureAutoSeal(policy);

  // Nothing staged: the tick is a no-op at any clock reading.
  auto idle = handler->MaybeAutoSeal();
  ASSERT_TRUE(idle.ok());
  EXPECT_FALSE(*idle);

  ASSERT_TRUE(handler->LoadSegment(segment_file).ok());
  EXPECT_EQ(handler->epoch_seq(), 0u);

  // One ms short of the threshold: still the old epoch.
  now_ms += 4999;
  auto early = handler->MaybeAutoSeal();
  ASSERT_TRUE(early.ok());
  EXPECT_FALSE(*early);
  EXPECT_EQ(handler->epoch_seq(), 0u);

  now_ms += 1;
  auto sealed = handler->MaybeAutoSeal();
  ASSERT_TRUE(sealed.ok());
  EXPECT_TRUE(*sealed);
  EXPECT_EQ(handler->epoch_seq(), 1u);
  EXPECT_EQ(handler->staged_segments(), 0u);

  // The clock keeps running but nothing new is staged: no re-seal.
  now_ms += 100000;
  auto again = handler->MaybeAutoSeal();
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);
  EXPECT_EQ(handler->epoch_seq(), 1u);

  auto full_engine = QueryEngine::Create(
      BuildUdaGraph(f.anonymized), BuildUdaGraph(f.full), SmallConfig());
  ASSERT_TRUE(full_engine.ok());
  EXPECT_EQ(Witness(*handler), Witness(**full_engine));
}

TEST(EpochHandlerTest, AutoSealAgeClockStartsAtFirstStagedSegment) {
  // Two segments staged at different times: the age trigger measures from
  // the FIRST, so a trickle of segments cannot postpone the seal forever.
  const Fixture f = MakeFixture(12, 7);
  const ScopedTempDir tmp;
  const std::string first_file = tmp.File("epoch_auto_first.dhsg");
  const std::string second_file = tmp.File("epoch_auto_second.dhsg");
  // Chain: base -> (tail half 1) -> (tail half 2).
  IngestState state = IngestState::FromDataset(f.base);
  const size_t half = f.tail.size() / 2;
  std::vector<Post> tail_a(f.tail.begin(),
                           f.tail.begin() + static_cast<long>(half));
  std::vector<Post> tail_b(f.tail.begin() + static_cast<long>(half),
                           f.tail.end());
  ASSERT_FALSE(tail_a.empty());
  ASSERT_FALSE(tail_b.empty());
  auto seg_a = CutSegment(&state, tail_a);
  ASSERT_TRUE(seg_a.ok());
  ASSERT_TRUE(WriteSegmentVerified(*seg_a, first_file).ok());
  auto seg_b = CutSegment(&state, tail_b);
  ASSERT_TRUE(seg_b.ok());
  ASSERT_TRUE(WriteSegmentVerified(*seg_b, second_file).ok());

  auto handler = MakeHandler(f, SmallConfig());
  int64_t now_ms = 0;
  AutoSealPolicy policy;
  policy.secs_threshold = 10;
  policy.now_ms = [&now_ms] { return now_ms; };
  handler->ConfigureAutoSeal(policy);

  ASSERT_TRUE(handler->LoadSegment(first_file).ok());
  now_ms += 9000;
  ASSERT_TRUE(handler->LoadSegment(second_file).ok());
  EXPECT_EQ(handler->staged_segments(), 2u);

  // 9s after the first segment: not due. 10s after: due, even though the
  // second segment is only 1s old.
  auto early = handler->MaybeAutoSeal();
  ASSERT_TRUE(early.ok());
  EXPECT_FALSE(*early);
  now_ms += 1000;
  auto sealed = handler->MaybeAutoSeal();
  ASSERT_TRUE(sealed.ok());
  EXPECT_TRUE(*sealed);
  EXPECT_EQ(handler->epoch_seq(), 1u);

  auto full_engine = QueryEngine::Create(
      BuildUdaGraph(f.anonymized), BuildUdaGraph(f.full), SmallConfig());
  ASSERT_TRUE(full_engine.ok());
  EXPECT_EQ(Witness(*handler), Witness(**full_engine));
}

// Queries racing a seal never fail and always see a complete epoch —
// either the old one or the new one, nothing in between.
TEST(EpochHandlerTest, QueriesSurviveConcurrentSeal) {
  const Fixture f = MakeFixture(12, 13);
  const ScopedTempDir tmp;
  const std::string segment_file = tmp.File("epoch_race.dhsg");
  CutTailSegment(f, segment_file);
  auto handler = MakeHandler(f, SmallConfig());
  const std::string old_witness = Witness(*handler);
  ASSERT_TRUE(handler->LoadSegment(segment_file).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t)
    workers.emplace_back([&] {
      const std::vector<int> users = AllUsers(*handler);
      while (!stop.load()) {
        auto answer = handler->TopKScored(users, 3);
        if (!answer.ok()) failures.fetch_add(1);
      }
    });
  ASSERT_TRUE(handler->SealEpoch().ok());
  stop.store(true);
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_NE(Witness(*handler), old_witness);
}

}  // namespace
}  // namespace ingest
}  // namespace dehealth
