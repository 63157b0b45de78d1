#include "common/string_utils.h"

#include <gtest/gtest.h>

namespace dehealth {
namespace {

TEST(SplitStringTest, BasicSplit) {
  auto parts = SplitString("a,b,c", ",");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitStringTest, DropsEmptyPieces) {
  auto parts = SplitString(",,a,,b,", ",");
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(SplitStringTest, MultipleDelimiters) {
  auto parts = SplitString("a b\tc", " \t");
  EXPECT_EQ(parts.size(), 3u);
}

TEST(SplitStringTest, EmptyInput) {
  EXPECT_TRUE(SplitString("", ",").empty());
}

TEST(ToLowerAsciiTest, MixedCase) {
  EXPECT_EQ(ToLowerAscii("WebMD Rocks 123"), "webmd rocks 123");
}

TEST(TrimAsciiTest, Cases) {
  EXPECT_EQ(TrimAscii("  hi  "), "hi");
  EXPECT_EQ(TrimAscii("hi"), "hi");
  EXPECT_EQ(TrimAscii("   "), "");
  EXPECT_EQ(TrimAscii("\n\thi\r\n"), "hi");
}

TEST(StartsEndsWithTest, Cases) {
  EXPECT_TRUE(EndsWith("running", "ing"));
  EXPECT_FALSE(EndsWith("g", "ing"));
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(StrFormat("no args"), "no args");
}

TEST(StrFormatTest, LongOutput) {
  std::string long_arg(500, 'a');
  std::string out = StrFormat("[%s]", long_arg.c_str());
  EXPECT_EQ(out.size(), 502u);
}

}  // namespace
}  // namespace dehealth
