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
  EXPECT_TRUE(flags.status().ok()) << flags.status().ToString();
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
                                       2, BooleanFlags()),
                                 "cli")
                  .ok());
  // A misspelled flag, a retired one, and a trailing valueless unknown
  // flag all fail instead of being silently ignored.
  for (const char* unknown : {"bogus-flag", "max-candidates"}) {
    const std::string flag = std::string("--") + unknown;
    Status st = RejectUnknownFlags(
        Parse({"prog", "attack", "--k", "5", flag.c_str(), "7"}, 2), "cli");
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << unknown;
    EXPECT_NE(st.message().find("unknown flag " + flag), std::string::npos)
        << st.ToString();
  }
  EXPECT_FALSE(
      RejectUnknownFlags(Parse({"--k", "5", "--bogus"}), "cli").ok());
}

TEST(FlagParserTest, FlagsOfAnotherBinaryAreRejected) {
  // --backends and --segment are router/ingest and query flags: generate
  // used to ignore them and write its forum.
  const FlagParser generate =
      Parse({"prog", "generate", "--users", "5", "--out", "x.jsonl",
             "--backends", "a:1", "--segment", "s.dhsg"},
            2, BooleanFlags());
  const Status st = RejectUnknownFlags(generate, "cli");
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("unknown flag --backends for dehealth_cli"),
            std::string::npos)
      << st.ToString();
  // A switch is declared to every binary, so query names it instead of
  // reading it as a flag missing its value.
  const Status idf = RejectUnknownFlags(
      Parse({"prog", "stats", "--port", "1", "--idf"}, 2, BooleanFlags()),
      "query");
  EXPECT_NE(idf.message().find("unknown flag --idf for dehealth_query"),
            std::string::npos)
      << idf.ToString();
  // The same flags pass where the catalog lists them; "cli attack" admits
  // a flag in every cli subcommand.
  EXPECT_TRUE(RejectUnknownFlags(Parse({"--backends", "a:1"}), "router").ok());
  EXPECT_TRUE(RejectUnknownFlags(Parse({"--segment", "s.dhsg"}), "query").ok());
  EXPECT_TRUE(RejectUnknownFlags(Parse({"--idf"}, 0, BooleanFlags()), "serve")
                  .ok());
  EXPECT_TRUE(RejectUnknownFlags(Parse({"--threads", "2"}), "cli").ok());
  EXPECT_FALSE(RejectUnknownFlags(Parse({"--threads", "2"}), "query").ok());
}

/// RejectUnknownFlags' verdict on `argv` (parsed from index 2, with the
/// catalog's boolean flags) must be InvalidArgument containing `message`.
void ExpectMalformed(std::vector<const char*> argv,
                     const std::string& message) {
  const FlagParser flags = Parse(argv, 2, BooleanFlags());
  EXPECT_EQ(flags.status().code(), StatusCode::kInvalidArgument) << message;
  EXPECT_NE(flags.status().message().find(message), std::string::npos)
      << flags.status().ToString();
  const Status st = RejectUnknownFlags(flags, "cli");
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << message;
  EXPECT_NE(st.message().find(message), std::string::npos) << st.ToString();
}

TEST(FlagParserTest, MalformedCommandLinesFailClosed) {
  // A trailing flag with no value used to read as its default.
  ExpectMalformed({"prog", "generate", "--users", "50", "--out", "g.jsonl",
                   "--seed"},
                  "--seed expects a value");
  // A flag as another flag's value used to become it (a file named
  // "--seed"), dropping the 5.
  ExpectMalformed({"prog", "generate", "--users", "50", "--out", "--seed",
                   "5"},
                  "--out expects a value");
  ExpectMalformed({"prog", "attack", "--out", "--idf"},
                  "--out expects a value");
  // An empty value used to read as the default.
  ExpectMalformed({"prog", "attack", "--k", ""}, "--k expects a value");
  // A repeated flag used to keep its last value.
  ExpectMalformed({"prog", "attack", "--k", "5", "--k", "7"},
                  "--k given twice");
  ExpectMalformed({"prog", "attack", "--idf", "--k", "5", "--idf"},
                  "--idf given twice");
  // A token that is neither a flag nor a flag's value used to be skipped.
  ExpectMalformed({"prog", "generate", "--users", "50", "5"},
                  "unexpected argument '5'");
  ExpectMalformed({"prog", "attack", "--idf", "10"},
                  "unexpected argument '10'");
}

TEST(FlagParserTest, FirstMalformedTokenIsReported) {
  ExpectMalformed({"prog", "attack", "stray", "--k", "5", "--k", "7"},
                  "unexpected argument 'stray'");
  ExpectMalformed({"prog", "attack", "--k", "5", "--k", "7", "stray"},
                  "--k given twice");
}

TEST(FlagParserTest, UnknownFlagIsReportedBeforeMalformedOnes) {
  // "--bogus" is both unknown and missing its value: naming it unknown
  // says more.
  const Status st = RejectUnknownFlags(
      Parse({"prog", "attack", "--k", "5", "--k", "6", "--bogus"}, 2), "cli");
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("unknown flag --bogus"), std::string::npos)
      << st.ToString();
}

}  // namespace
}  // namespace dehealth
