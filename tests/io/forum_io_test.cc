#include "io/forum_io.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "datagen/forum_generator.h"
#include "testing/scoped_temp_dir.h"

namespace dehealth {
namespace {

TEST(EscapeJsonTest, EscapesSpecials) {
  EXPECT_EQ(EscapeJson("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapeJson("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeJson("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(EscapeJson("tab\there"), "tab\\there");
  EXPECT_EQ(EscapeJson(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(EscapeJson("plain"), "plain");
}

TEST(UnescapeJsonTest, RoundTripsEscape) {
  for (const char* raw :
       {"plain", "with \"quotes\"", "back\\slash", "multi\nline\twith\r",
        "don't stop", ""}) {
    auto unescaped = UnescapeJson(EscapeJson(raw));
    ASSERT_TRUE(unescaped.ok()) << raw;
    EXPECT_EQ(*unescaped, raw);
  }
}

TEST(UnescapeJsonTest, RejectsBadEscapes) {
  EXPECT_FALSE(UnescapeJson("dangling\\").ok());
  EXPECT_FALSE(UnescapeJson("bad\\q").ok());
  EXPECT_FALSE(UnescapeJson("bad\\u12").ok());
  EXPECT_FALSE(UnescapeJson("bad\\u12zz").ok());
}

TEST(UnescapeJsonTest, HandlesUnicodeEscapes) {
  auto r = UnescapeJson("\\u0041");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "A");
}

ForumDataset SmallDataset() {
  ForumDataset d;
  d.num_users = 3;
  d.num_threads = 2;
  d.posts = {
      {0, 0, "hello \"world\"!"},
      {1, 0, "line1\nline2"},
      {2, 1, "plain post"},
  };
  return d;
}

TEST(ForumJsonlTest, RoundTrip) {
  const ForumDataset original = SmallDataset();
  const std::string jsonl = ForumDatasetToJsonl(original);
  auto loaded = ForumDatasetFromJsonl(jsonl);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_users, original.num_users);
  EXPECT_EQ(loaded->num_threads, original.num_threads);
  ASSERT_EQ(loaded->posts.size(), original.posts.size());
  for (size_t i = 0; i < original.posts.size(); ++i) {
    EXPECT_EQ(loaded->posts[i].user_id, original.posts[i].user_id);
    EXPECT_EQ(loaded->posts[i].thread_id, original.posts[i].thread_id);
    EXPECT_EQ(loaded->posts[i].text, original.posts[i].text);
  }
}

TEST(ForumJsonlTest, RoundTripGeneratedForum) {
  auto forum = GenerateForum(WebMdLikeConfig(40, 9));
  ASSERT_TRUE(forum.ok());
  auto loaded = ForumDatasetFromJsonl(ForumDatasetToJsonl(forum->dataset));
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->posts.size(), forum->dataset.posts.size());
  for (size_t i = 0; i < loaded->posts.size(); i += 13)
    EXPECT_EQ(loaded->posts[i].text, forum->dataset.posts[i].text);
}

TEST(ForumJsonlTest, RejectsEmptyAndMalformed) {
  EXPECT_FALSE(ForumDatasetFromJsonl("").ok());
  EXPECT_FALSE(ForumDatasetFromJsonl("{\"num_users\": 2}\n").ok());
  EXPECT_FALSE(
      ForumDatasetFromJsonl("{\"num_users\": 1, \"num_threads\": 1}\n"
                            "{\"user_id\": 0}\n")
          .ok());
}

TEST(ForumJsonlTest, RejectsOutOfRangeIds) {
  const char* bad_user =
      "{\"num_users\": 1, \"num_threads\": 1}\n"
      "{\"user_id\": 5, \"thread_id\": 0, \"text\": \"x\"}\n";
  auto r = ForumDatasetFromJsonl(bad_user);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  const char* bad_thread =
      "{\"num_users\": 1, \"num_threads\": 1}\n"
      "{\"user_id\": 0, \"thread_id\": 7, \"text\": \"x\"}\n";
  EXPECT_FALSE(ForumDatasetFromJsonl(bad_thread).ok());
}

TEST(ForumJsonlTest, ToleratesBlankLines) {
  const char* with_blanks =
      "{\"num_users\": 1, \"num_threads\": 1}\n\n"
      "{\"user_id\": 0, \"thread_id\": 0, \"text\": \"ok\"}\n\n";
  auto r = ForumDatasetFromJsonl(with_blanks);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->posts.size(), 1u);
}

TEST(ForumFileIoTest, SaveAndLoad) {
  const ForumDataset original = SmallDataset();
  const ScopedTempDir tmp;
  const std::string path = tmp.File("dehealth_forum_io_test.jsonl");
  ASSERT_TRUE(SaveForumDataset(original, path).ok());
  auto loaded = LoadForumDataset(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->posts.size(), original.posts.size());
  std::remove(path.c_str());
}

TEST(ForumFileIoTest, TruncatedFileFailsCleanly) {
  auto forum = GenerateForum(WebMdLikeConfig(10, 3));
  ASSERT_TRUE(forum.ok());
  const ScopedTempDir tmp;
  const std::string path = tmp.File("dehealth_forum_truncated.jsonl");
  ASSERT_TRUE(SaveForumDataset(forum->dataset, path).ok());
  const std::string full = ForumDatasetToJsonl(forum->dataset);
  // Cut mid-record: the dangling line must come back as a Status error.
  std::ofstream(path, std::ios::binary)
      << full.substr(0, full.size() - 5);
  auto r = LoadForumDataset(path);
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

TEST(ForumFileIoTest, LoadMissingFileFails) {
  const ScopedTempDir tmp;
  auto r = LoadForumDataset(tmp.File("definitely_missing_dehealth.jsonl"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// A parse failure from disk must name the file AND the line where parsing
// stopped — a bad record among millions is attributable, not a mystery.
TEST(ForumFileIoTest, ParseErrorsCarryPathAndLine) {
  const ScopedTempDir tmp;
  const std::string path = tmp.File("dehealth_forum_badline.jsonl");
  std::ofstream(path, std::ios::binary)
      << "{\"num_users\": 3, \"num_threads\": 2}\n"
      << "{\"user_id\": 0, \"thread_id\": 0, \"text\": \"ok\"}\n"
      << "{\"user_id\": 1, \"thread_id\": 0}\n";
  auto r = LoadForumDataset(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find(path), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("(line 3)"), std::string::npos)
      << r.status().ToString();
  std::remove(path.c_str());
}

// Malformed-corpus sweep: every adversarial shape a crawler or a corrupted
// disk can hand us must come back as a typed Status carrying the line
// where parsing stopped — never a crash, never unbounded allocation.
TEST(ForumJsonlTest, MalformedCorpusSweep) {
  const std::string valid_header =
      "{\"num_users\": 2, \"num_threads\": 2}\n";
  struct Case {
    const char* label;
    std::string jsonl;
  };
  const Case cases[] = {
      {"binary garbage", std::string("\x7f""ELF\x02\x01\x01\x00\x19\x88")},
      {"NUL byte", valid_header + std::string("{\"user_id\"\0: 0}\n", 17)},
      {"header missing threads", "{\"num_users\": 2}\n"},
      {"negative header", "{\"num_users\": -4, \"num_threads\": 1}\n"},
      {"absurd header",
       "{\"num_users\": 2000000000, \"num_threads\": 1}\n"},
      {"float header", "{\"num_users\": 1.5, \"num_threads\": 1}\n"},
      {"duplicate conflicting header line treated as post",
       valid_header + "{\"num_users\": 9, \"num_threads\": 9}\n"},
      {"record missing text",
       valid_header + "{\"user_id\": 0, \"thread_id\": 0}\n"},
      {"record with bare number text",
       valid_header + "{\"user_id\": 0, \"thread_id\": 0, \"text\": 7}\n"},
      {"unterminated string",
       valid_header +
           "{\"user_id\": 0, \"thread_id\": 0, \"text\": \"oops}\n"},
      {"bad escape",
       valid_header +
           "{\"user_id\": 0, \"thread_id\": 0, \"text\": \"a\\q\"}\n"},
      {"truncated unicode escape",
       valid_header +
           "{\"user_id\": 0, \"thread_id\": 0, \"text\": \"a\\u12\"}\n"},
      {"non-numeric id",
       valid_header +
           "{\"user_id\": x, \"thread_id\": 0, \"text\": \"a\"}\n"},
      {"truncated mid-record",
       valid_header + "{\"user_id\": 1, \"thr"},
  };
  for (const Case& c : cases) {
    auto r = ForumDatasetFromJsonl(c.jsonl, "sweep.jsonl");
    ASSERT_FALSE(r.ok()) << c.label;
    EXPECT_TRUE(r.status().code() == StatusCode::kInvalidArgument ||
                r.status().code() == StatusCode::kOutOfRange)
        << c.label << ": " << r.status().ToString();
    EXPECT_NE(r.status().message().find("line "), std::string::npos)
        << c.label << ": " << r.status().ToString();
    EXPECT_NE(r.status().message().find("sweep.jsonl"), std::string::npos)
        << c.label;
  }
}

// Injected on-disk corruption of a real generated corpus: a mid-file bit
// flip or a torn read surfaces as a path-carrying Status, never UB.
TEST(ForumFileIoTest, InjectedCorruptionFailsCleanly) {
  auto forum = GenerateForum(WebMdLikeConfig(10, 5));
  ASSERT_TRUE(forum.ok());
  const ScopedTempDir tmp;
  const std::string path = tmp.File("dehealth_forum_faulted.jsonl");
  ASSERT_TRUE(SaveForumDataset(forum->dataset, path).ok());
  // A read-side I/O error is always surfaced.
  ASSERT_TRUE(FaultInjector::Global().Configure("file.read:fail:1").ok());
  EXPECT_EQ(LoadForumDataset(path).status().code(), StatusCode::kInternal);
  FaultInjector::Global().Reset();
  // Corruption (bit flip / torn read) must never crash; when the damage
  // lands on structure the error names the file. (A flip inside post text
  // can still parse — JSONL has no checksum; that is the documented
  // contract difference vs the DHIX/DHSH binary formats.)
  for (const char* spec :
       {"forum.load.data:flip:1", "forum.load.data:short:1"}) {
    ASSERT_TRUE(FaultInjector::Global().Configure(spec).ok());
    auto r = LoadForumDataset(path);
    FaultInjector::Global().Reset();
    if (!r.ok()) {
      EXPECT_NE(r.status().message().find(path), std::string::npos)
          << spec << ": " << r.status().ToString();
    }
  }
  // Disarmed, the same file loads fine: the faults were injected, not real.
  EXPECT_TRUE(LoadForumDataset(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dehealth
