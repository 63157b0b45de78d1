#include "datagen/vocabulary.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/string_utils.h"

namespace dehealth {
namespace {

TEST(VocabularyTest, GeneratesRequestedSize) {
  Rng rng(1);
  Vocabulary v(500, rng);
  EXPECT_EQ(v.size(), 500);
  EXPECT_EQ(v.words().size(), 500u);
}

TEST(VocabularyTest, WordsAreUnique) {
  Rng rng(2);
  Vocabulary v(1000, rng);
  std::set<std::string> unique(v.words().begin(), v.words().end());
  EXPECT_EQ(unique.size(), 1000u);
}

TEST(VocabularyTest, WordsAreLowercaseAlpha) {
  Rng rng(3);
  Vocabulary v(300, rng);
  for (const auto& w : v.words()) {
    EXPECT_TRUE(std::all_of(w.begin(), w.end(), IsAsciiLetter)) << w;
    EXPECT_EQ(w, ToLowerAscii(w)) << w;
    EXPECT_GE(w.size(), 2u);
  }
}

TEST(VocabularyTest, DeterministicGivenSeed) {
  Rng a(7), b(7);
  Vocabulary va(100, a), vb(100, b);
  EXPECT_EQ(va.words(), vb.words());
}

TEST(VocabularyTest, DifferentSeedsDiffer) {
  Rng a(7), b(8);
  Vocabulary va(100, a), vb(100, b);
  EXPECT_NE(va.words(), vb.words());
}

TEST(VocabularyTest, WordLengthsLookLikeContentWords) {
  Rng rng(9);
  Vocabulary v(2000, rng);
  double total = 0.0;
  for (const auto& w : v.words()) total += static_cast<double>(w.size());
  const double mean = total / 2000.0;
  EXPECT_GT(mean, 4.0);
  EXPECT_LT(mean, 11.0);
}

}  // namespace
}  // namespace dehealth
