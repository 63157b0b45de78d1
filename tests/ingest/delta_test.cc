// The golden contract of streaming ingestion: a base dataset advanced by
// any chain of delta segments — cut in any chunking, compacted in any
// grouping, applied by a state built with any worker-thread count — is
// BITWISE-identical to building from scratch over the full post log. The
// comparisons below are byte comparisons of encoded DHIX snapshots (and
// exact equality of served scores), not tolerances.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/de_health.h"
#include "core/uda_graph.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "index/candidate_index.h"
#include "index/snapshot.h"
#include "ingest/segment.h"
#include "ingest/state.h"
#include "serve/engine.h"

namespace dehealth {
namespace ingest {
namespace {

struct Scenario {
  ForumDataset anonymized;
  ForumDataset auxiliary;
};

Scenario MakeScenario(int num_users, uint64_t seed) {
  ForumConfig config;
  config.num_users = num_users;
  config.seed = seed;
  config.style.vocabulary_size = 300;
  auto forum = GenerateForum(config);
  EXPECT_TRUE(forum.ok());
  auto split = MakeClosedWorldScenario(forum->dataset, 0.5, 5);
  EXPECT_TRUE(split.ok());
  return {std::move(split->anonymized), std::move(split->auxiliary)};
}

/// The aux dataset truncated to its first `posts` posts (same declared
/// universe — the forum's users exist before their late posts arrive).
ForumDataset Prefix(const ForumDataset& full, size_t posts) {
  ForumDataset base;
  base.num_users = full.num_users;
  base.num_threads = full.num_threads;
  base.posts.assign(full.posts.begin(),
                    full.posts.begin() + static_cast<long>(posts));
  return base;
}

std::vector<Post> TailOf(const ForumDataset& full, size_t from, size_t to) {
  return std::vector<Post>(full.posts.begin() + static_cast<long>(from),
                           full.posts.begin() + static_cast<long>(to));
}

/// Byte-exact witness of a UDA graph: the encoded DHIX built from it.
std::string IndexBytes(const UdaGraph& uda) {
  SimilarityConfig sim;
  auto index = LoadOrBuildIndex("", uda, sim);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return EncodeIndexSnapshot(*index);
}

TEST(DeltaGoldenTest, IncrementalEqualsFromScratch) {
  const Scenario s = MakeScenario(14, 77);
  const size_t total = s.auxiliary.posts.size();
  const size_t base_posts = total / 2;
  ASSERT_GT(base_posts, 0u);
  ASSERT_LT(base_posts, total);

  IngestState state = IngestState::FromDataset(Prefix(s.auxiliary, base_posts));
  // Three uneven chunks, cut and applied incrementally.
  const size_t cut1 = base_posts + (total - base_posts) / 3;
  const size_t cut2 = base_posts + 2 * (total - base_posts) / 3;
  for (auto [from, to] : std::vector<std::pair<size_t, size_t>>{
           {base_posts, cut1}, {cut1, cut2}, {cut2, total}}) {
    if (from == to) continue;
    auto segment = CutSegment(&state, TailOf(s.auxiliary, from, to));
    ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  }

  const UdaGraph scratch = BuildUdaGraph(s.auxiliary);
  EXPECT_EQ(state.fingerprint(), FingerprintForIndex(scratch));
  EXPECT_EQ(IndexBytes(state.uda()), IndexBytes(scratch));
}

TEST(DeltaGoldenTest, CompactedChainAppliesIdentically) {
  const Scenario s = MakeScenario(12, 91);
  const size_t total = s.auxiliary.posts.size();
  const size_t base_posts = total / 3;

  // Producer cuts a 4-segment chain.
  IngestState producer =
      IngestState::FromDataset(Prefix(s.auxiliary, base_posts));
  std::vector<DeltaSegment> chain;
  size_t from = base_posts;
  for (int i = 1; i <= 4; ++i) {
    const size_t to = base_posts + (total - base_posts) * i / 4;
    if (from == to) continue;
    auto segment = CutSegment(&producer, TailOf(s.auxiliary, from, to));
    ASSERT_TRUE(segment.ok()) << segment.status().ToString();
    chain.push_back(std::move(segment).value());
    from = to;
  }
  ASSERT_GE(chain.size(), 2u);

  auto compacted = CompactSegments(chain);
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();

  // Apply the raw chain and the compacted segment to fresh states.
  IngestState raw = IngestState::FromDataset(Prefix(s.auxiliary, base_posts));
  for (const DeltaSegment& segment : chain)
    ASSERT_TRUE(raw.Apply(segment).ok());
  IngestState merged =
      IngestState::FromDataset(Prefix(s.auxiliary, base_posts));
  ASSERT_TRUE(merged.Apply(*compacted).ok());

  const std::string golden = IndexBytes(BuildUdaGraph(s.auxiliary));
  EXPECT_EQ(IndexBytes(raw.uda()), golden);
  EXPECT_EQ(IndexBytes(merged.uda()), golden);
}

// Randomized append/compact schedules: random chunk sizes, random
// compaction of random sub-chains, several seeds — every schedule must
// land byte-identically on the from-scratch build.
TEST(DeltaGoldenTest, RandomizedSchedulesConverge) {
  const Scenario s = MakeScenario(12, 123);
  const size_t total = s.auxiliary.posts.size();
  const size_t base_posts = total / 4;
  const std::string golden = IndexBytes(BuildUdaGraph(s.auxiliary));

  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    IngestState producer =
        IngestState::FromDataset(Prefix(s.auxiliary, base_posts));
    std::vector<DeltaSegment> chain;
    size_t from = base_posts;
    while (from < total) {
      const size_t to =
          from + static_cast<size_t>(rng.NextInt(
                     1, static_cast<int64_t>(total - from)));
      auto segment = CutSegment(&producer, TailOf(s.auxiliary, from, to));
      ASSERT_TRUE(segment.ok()) << segment.status().ToString();
      chain.push_back(std::move(segment).value());
      from = to;
    }
    // Randomly compact an adjacent run of the chain (LSM-style).
    while (chain.size() > 1 && rng.NextBounded(2) == 0) {
      const size_t start = static_cast<size_t>(
          rng.NextBounded(chain.size() - 1));
      const size_t len = 2 + static_cast<size_t>(rng.NextBounded(
                                 chain.size() - start - 1));
      std::vector<DeltaSegment> run(
          chain.begin() + static_cast<long>(start),
          chain.begin() + static_cast<long>(start + len));
      auto merged = CompactSegments(run);
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      chain.erase(chain.begin() + static_cast<long>(start),
                  chain.begin() + static_cast<long>(start + len));
      chain.insert(chain.begin() + static_cast<long>(start),
                   std::move(merged).value());
    }
    IngestState state =
        IngestState::FromDataset(Prefix(s.auxiliary, base_posts));
    for (const DeltaSegment& segment : chain)
      ASSERT_TRUE(state.Apply(segment).ok());
    EXPECT_EQ(IndexBytes(state.uda()), golden) << "seed " << seed;
  }
}

TEST(DeltaGoldenTest, StaleSegmentRefusedCleanly) {
  const Scenario s = MakeScenario(10, 55);
  const size_t total = s.auxiliary.posts.size();
  const size_t base_posts = total / 2;

  IngestState producer =
      IngestState::FromDataset(Prefix(s.auxiliary, base_posts));
  auto first = CutSegment(&producer, TailOf(s.auxiliary, base_posts, total));
  ASSERT_TRUE(first.ok());

  // The same segment cannot apply twice: its parent is the pre-apply state.
  IngestState consumer =
      IngestState::FromDataset(Prefix(s.auxiliary, base_posts));
  ASSERT_TRUE(consumer.Apply(*first).ok());
  auto again = consumer.Apply(*first);
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
  // A refused segment leaves the state untouched.
  EXPECT_EQ(consumer.fingerprint(), producer.fingerprint());
}

// Apply is transactional past the precondition checks too: a segment
// whose content does not match its own result manifest is folded in,
// detected, and rolled back BITWISE — the chain then continues with the
// honest segment as if the liar never arrived.
TEST(DeltaGoldenTest, LyingSegmentRollsBackBitwise) {
  const Scenario s = MakeScenario(10, 55);
  const size_t total = s.auxiliary.posts.size();
  const size_t base_posts = total / 2;

  IngestState producer =
      IngestState::FromDataset(Prefix(s.auxiliary, base_posts));
  auto honest = CutSegment(&producer, TailOf(s.auxiliary, base_posts, total));
  ASSERT_TRUE(honest.ok());
  DeltaSegment liar = *honest;
  liar.result_fingerprint ^= 1;

  IngestState consumer =
      IngestState::FromDataset(Prefix(s.auxiliary, base_posts));
  const uint64_t before = consumer.fingerprint();
  const std::string before_bytes = IndexBytes(consumer.uda());
  Status applied = consumer.Apply(liar);
  EXPECT_EQ(applied.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(consumer.poisoned());
  EXPECT_EQ(consumer.posts(), base_posts);
  EXPECT_EQ(consumer.fingerprint(), before);
  EXPECT_EQ(IndexBytes(consumer.uda()), before_bytes);

  // The rolled-back state is a valid parent for the honest segment.
  ASSERT_TRUE(consumer.Apply(*honest).ok());
  EXPECT_EQ(consumer.fingerprint(), producer.fingerprint());
}

// Served answers built from the incrementally-grown state match the
// from-scratch engine exactly — for 1, 4, and 8 worker threads.
TEST(DeltaGoldenTest, ServedAnswersThreadCountInvariant) {
  const Scenario s = MakeScenario(12, 31);
  const size_t total = s.auxiliary.posts.size();
  const size_t base_posts = total / 2;

  IngestState state =
      IngestState::FromDataset(Prefix(s.auxiliary, base_posts));
  auto segment = CutSegment(&state, TailOf(s.auxiliary, base_posts, total));
  ASSERT_TRUE(segment.ok());

  const UdaGraph anon_graph = BuildUdaGraph(s.anonymized);
  std::vector<int> users(static_cast<size_t>(anon_graph.num_users()));
  for (size_t i = 0; i < users.size(); ++i) users[i] = static_cast<int>(i);

  std::vector<std::string> witnesses;
  for (int threads : {1, 4, 8}) {
    DeHealthConfig config;
    config.top_k = 3;
    config.num_threads = threads;
    for (const UdaGraph* aux : std::initializer_list<const UdaGraph*>{
             &state.uda(), /*from scratch:*/ nullptr}) {
      UdaGraph aux_graph =
          aux != nullptr ? *aux : BuildUdaGraph(s.auxiliary);
      auto engine = QueryEngine::Create(anon_graph, std::move(aux_graph),
                                        config);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      auto answer = (*engine)->TopKScored(users, 3);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      // Serialize the scored answer exactly (ids + raw score bits).
      std::string witness;
      for (const auto& list : answer->candidates)
        for (const ScoredUser& c : list) {
          witness += std::to_string(c.user) + ":";
          uint64_t bits = 0;
          static_assert(sizeof(bits) == sizeof(c.score));
          __builtin_memcpy(&bits, &c.score, sizeof(bits));
          witness += std::to_string(bits) + " ";
        }
      witnesses.push_back(std::move(witness));
    }
  }
  ASSERT_EQ(witnesses.size(), 6u);
  for (size_t i = 1; i < witnesses.size(); ++i)
    EXPECT_EQ(witnesses[i], witnesses[0]) << "witness " << i;
}

}  // namespace
}  // namespace ingest
}  // namespace dehealth
