#include "defense/defense.h"

#include <gtest/gtest.h>

#include "datagen/forum_generator.h"
#include "text/lexicon.h"
#include "text/tokenizer.h"

namespace dehealth {
namespace {

TEST(ScrubTextTest, LowercasesAndStripsPunctuation) {
  EXPECT_EQ(ScrubText("Hello, World! I'm FINE."), "hello world i'm fine");
}

TEST(ScrubTextTest, RemovesMisspellings) {
  EXPECT_EQ(ScrubText("i beleive you"), "i you");
}

TEST(ScrubTextTest, CollapsesWhitespaceAndNewlines) {
  EXPECT_EQ(ScrubText("a\n\nb   c"), "a b c");
}

TEST(ScrubTextTest, KeepsDigits) {
  EXPECT_EQ(ScrubText("take 20 mg"), "take 20 mg");
}

TEST(ScrubTextTest, EmptyInput) { EXPECT_EQ(ScrubText(""), ""); }

ForumDataset SmallDataset() {
  ForumDataset d;
  d.num_users = 2;
  d.num_threads = 1;
  d.posts = {
      {0, 0, "First Post! I beleive it's GOOD."},
      {0, 0, "Second post, plain."},
      {1, 0, "Reply here; fine."},
  };
  return d;
}

TEST(ApplyDefenseTest, RejectsBadFraction) {
  DefenseConfig config;
  config.post_sample_fraction = 0.0;
  EXPECT_FALSE(ApplyDefense(SmallDataset(), config).ok());
  config.post_sample_fraction = 1.5;
  EXPECT_FALSE(ApplyDefense(SmallDataset(), config).ok());
}

TEST(ApplyDefenseTest, NoOpConfigPreservesDataset) {
  auto defended = ApplyDefense(SmallDataset(), {});
  ASSERT_TRUE(defended.ok());
  EXPECT_EQ(defended->posts.size(), 3u);
  EXPECT_EQ(defended->posts[0].text, "First Post! I beleive it's GOOD.");
  EXPECT_EQ(defended->num_threads, 1);
}

TEST(ApplyDefenseTest, ScrubsAllPosts) {
  DefenseConfig config;
  config.scrub_text = true;
  auto defended = ApplyDefense(SmallDataset(), config);
  ASSERT_TRUE(defended.ok());
  for (const Post& p : defended->posts) {
    for (char c : p.text) {
      EXPECT_FALSE(std::isupper(static_cast<unsigned char>(c))) << p.text;
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) ||
                  c == ' ' || c == '\'')
          << p.text;
    }
    for (const std::string& w : TokenizeWords(p.text))
      EXPECT_FALSE(IsMisspelling(w)) << w;
  }
}

TEST(ApplyDefenseTest, DropThreadStructureIsolatesPosts) {
  DefenseConfig config;
  config.drop_thread_structure = true;
  auto defended = ApplyDefense(SmallDataset(), config);
  ASSERT_TRUE(defended.ok());
  std::set<int> threads;
  for (const Post& p : defended->posts) threads.insert(p.thread_id);
  EXPECT_EQ(threads.size(), defended->posts.size());
  // The resulting correlation graph is empty.
  EXPECT_EQ(BuildCorrelationGraph(*defended).num_edges(), 0);
}

TEST(ApplyDefenseTest, SubsamplingKeepsAtLeastOnePostPerUser) {
  auto forum = GenerateForum(WebMdLikeConfig(60, 3));
  ASSERT_TRUE(forum.ok());
  DefenseConfig config;
  config.post_sample_fraction = 0.3;
  auto defended = ApplyDefense(forum->dataset, config);
  ASSERT_TRUE(defended.ok());
  EXPECT_LT(defended->posts.size(), forum->dataset.posts.size());
  const auto counts = defended->PostCounts();
  const auto original_counts = forum->dataset.PostCounts();
  for (size_t u = 0; u < counts.size(); ++u) {
    if (original_counts[u] > 0) {
      EXPECT_GE(counts[u], 1) << u;
    }
    EXPECT_LE(counts[u], original_counts[u]);
  }
}

TEST(ApplyDefenseTest, DeterministicInSeed) {
  auto forum = GenerateForum(WebMdLikeConfig(40, 5));
  DefenseConfig config;
  config.post_sample_fraction = 0.5;
  config.seed = 11;
  auto a = ApplyDefense(forum->dataset, config);
  auto b = ApplyDefense(forum->dataset, config);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->posts.size(), b->posts.size());
  for (size_t i = 0; i < a->posts.size(); ++i)
    EXPECT_EQ(a->posts[i].text, b->posts[i].text);
}

TEST(ContentWordRetentionTest, IdentityIsLossless) {
  const auto d = SmallDataset();
  EXPECT_NEAR(ContentWordRetention(d, d), 1.0, 1e-12);
}

TEST(ContentWordRetentionTest, ScrubbingLosesOnlyMisspellings) {
  const auto original = SmallDataset();
  DefenseConfig config;
  config.scrub_text = true;
  auto defended = ApplyDefense(original, config);
  ASSERT_TRUE(defended.ok());
  const double retention = ContentWordRetention(original, *defended);
  EXPECT_GT(retention, 0.85);  // only "beleive" disappears
  EXPECT_LT(retention, 1.0);
}

TEST(ContentWordRetentionTest, SubsamplingLosesProportionally) {
  auto forum = GenerateForum(WebMdLikeConfig(60, 7));
  DefenseConfig config;
  config.post_sample_fraction = 0.4;
  auto defended = ApplyDefense(forum->dataset, config);
  ASSERT_TRUE(defended.ok());
  const double retention =
      ContentWordRetention(forum->dataset, *defended);
  EXPECT_GT(retention, 0.3);
  EXPECT_LT(retention, 0.9);
}

}  // namespace
}  // namespace dehealth
