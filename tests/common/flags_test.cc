#include "common/flags.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/flag_catalog.h"

namespace dehealth {
namespace {

FlagParser Parse(std::vector<const char*> argv, int first = 0,
                 std::set<std::string> boolean_flags = {}) {
  return FlagParser(static_cast<int>(argv.size()),
                    const_cast<char**>(argv.data()), first,
                    std::move(boolean_flags));
}

TEST(FlagParserTest, ReadsStringValuesInAnyOrder) {
  FlagParser flags =
      Parse({"--out", "a.csv", "--learner", "smo", "--host", "::1"});
  EXPECT_EQ(flags.Get("learner"), "smo");
  EXPECT_EQ(flags.Get("out"), "a.csv");
  EXPECT_EQ(flags.Get("host"), "::1");
  EXPECT_EQ(flags.Get("missing", "fallback"), "fallback");
}

TEST(FlagParserTest, FirstIndexSkipsSubcommandWords) {
  FlagParser flags = Parse({"prog", "attack", "--k", "5"}, 2);
  auto k = flags.GetInt("k", 10);
  ASSERT_TRUE(k.ok());
  EXPECT_EQ(*k, 5);
}

TEST(FlagParserTest, IntParsingIsStrict) {
  auto bad = Parse({"--threads", "2x"}).GetInt("threads", 0);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("--threads expects an integer"),
            std::string::npos);
  EXPECT_NE(bad.status().message().find("'2x'"), std::string::npos);

  auto absent = Parse({}).GetInt("threads", 7);
  ASSERT_TRUE(absent.ok());
  EXPECT_EQ(*absent, 7);
}

TEST(FlagParserTest, DoubleParsingIsStrict) {
  auto good = Parse({"--timeout-ms", "2.5"}).GetDouble("timeout-ms", 0.0);
  ASSERT_TRUE(good.ok());
  EXPECT_DOUBLE_EQ(*good, 2.5);
  auto bad = Parse({"--timeout-ms", "fast"}).GetDouble("timeout-ms", 0.0);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(FlagParserTest, BooleanFlagsTakeNoValue) {
  FlagParser flags =
      Parse({"--idf", "--k", "3", "--filter"}, 0, {"idf", "filter", "index"});
  EXPECT_TRUE(flags.Has("idf"));
  EXPECT_TRUE(flags.Has("filter"));
  EXPECT_FALSE(flags.Has("index"));
  auto k = flags.GetInt("k", 0);
  ASSERT_TRUE(k.ok());
  // "--idf" must not have swallowed "--k" as its value.
  EXPECT_EQ(*k, 3);
}

TEST(FlagParserTest, UnknownFlagsAreRejected) {
  EXPECT_TRUE(RejectUnknownFlags(Parse({"prog", "attack", "--k", "5",
                                        "--idf", "--index-path", "a.dhix"},
                                       2, AttackBooleanFlags()))
                  .ok());
  // A misspelled flag, a retired one, and a trailing valueless unknown
  // flag all fail instead of being silently ignored.
  for (const char* unknown : {"bogus-flag", "max-candidates"}) {
    const std::string flag = std::string("--") + unknown;
    Status st = RejectUnknownFlags(
        Parse({"prog", "attack", "--k", "5", flag.c_str(), "7"}, 2));
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << unknown;
    EXPECT_NE(st.message().find("unknown flag " + flag), std::string::npos)
        << st.ToString();
  }
  EXPECT_FALSE(RejectUnknownFlags(Parse({"--k", "5", "--bogus"})).ok());
}

}  // namespace
}  // namespace dehealth
