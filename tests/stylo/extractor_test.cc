#include "stylo/extractor.h"

#include <bit>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "io/byte_codec.h"
#include "stylo/feature_layout.h"

namespace dehealth {
namespace {

namespace fl = feature_layout;

class ExtractorTest : public ::testing::Test {
 protected:
  FeatureExtractor extractor_;
};

TEST_F(ExtractorTest, EmptyPostHasNoFeatures) {
  EXPECT_TRUE(extractor_.ExtractPost("").empty());
}

TEST_F(ExtractorTest, LengthFeatures) {
  const std::string text = "one two.\n\nthree.";
  SparseVector f = extractor_.ExtractPost(text);
  EXPECT_EQ(f.Get(fl::kNumChars), static_cast<double>(text.size()));
  EXPECT_EQ(f.Get(fl::kNumParagraphs), 2.0);
  // words: one(3) two(3) three(5) -> mean 11/3.
  EXPECT_NEAR(f.Get(fl::kAvgCharsPerWord), 11.0 / 3.0, 1e-9);
}

TEST_F(ExtractorTest, WordLengthFrequencies) {
  SparseVector f = extractor_.ExtractPost("a bb bb cccc");
  EXPECT_NEAR(f.Get(fl::kWordLengthBase + 0), 0.25, 1e-12);  // len 1
  EXPECT_NEAR(f.Get(fl::kWordLengthBase + 1), 0.5, 1e-12);   // len 2
  EXPECT_NEAR(f.Get(fl::kWordLengthBase + 3), 0.25, 1e-12);  // len 4
  EXPECT_EQ(f.Get(fl::kWordLengthBase + 2), 0.0);
}

TEST_F(ExtractorTest, VeryLongWordsClampToBucket20) {
  const std::string long_word(30, 'x');
  SparseVector f = extractor_.ExtractPost(long_word);
  EXPECT_NEAR(f.Get(fl::kWordLengthBase + fl::kNumWordLengths - 1), 1.0,
              1e-12);
}

TEST_F(ExtractorTest, LegomenaFractions) {
  // "solo" once (hapax), "pair" twice (dis), over 2 types.
  SparseVector f = extractor_.ExtractPost("solo pair pair");
  EXPECT_NEAR(f.Get(fl::kHapaxLegomena), 0.5, 1e-12);
  EXPECT_NEAR(f.Get(fl::kDisLegomena), 0.5, 1e-12);
  EXPECT_EQ(f.Get(fl::kTrisLegomena), 0.0);
}

TEST_F(ExtractorTest, LegomenaCaseFolded) {
  SparseVector f = extractor_.ExtractPost("Pain pain");
  // One type occurring twice => dis-legomena fraction 1.
  EXPECT_NEAR(f.Get(fl::kDisLegomena), 1.0, 1e-12);
  EXPECT_EQ(f.Get(fl::kHapaxLegomena), 0.0);
}

TEST_F(ExtractorTest, LetterFrequenciesCaseFolded) {
  SparseVector f = extractor_.ExtractPost("AaBb");
  EXPECT_NEAR(f.Get(fl::kLetterBase + 0), 0.5, 1e-12);  // 'a'
  EXPECT_NEAR(f.Get(fl::kLetterBase + 1), 0.5, 1e-12);  // 'b'
}

TEST_F(ExtractorTest, UppercasePercentage) {
  SparseVector f = extractor_.ExtractPost("ABcd");
  EXPECT_NEAR(f.Get(fl::kUppercasePct), 0.5, 1e-12);
}

TEST_F(ExtractorTest, DigitFrequencies) {
  const std::string text = "ab 12 2";  // 7 chars total
  SparseVector f = extractor_.ExtractPost(text);
  EXPECT_NEAR(f.Get(fl::kDigitBase + 1), 1.0 / 7.0, 1e-12);  // one '1'
  EXPECT_NEAR(f.Get(fl::kDigitBase + 2), 2.0 / 7.0, 1e-12);  // two '2'
}

TEST_F(ExtractorTest, PunctuationAndSpecialCharFrequencies) {
  const std::string text = "a, b! c/d";  // 9 chars
  SparseVector f = extractor_.ExtractPost(text);
  // ',' is punctuation index 1 in ".,;:!?'\"()".
  EXPECT_NEAR(f.Get(fl::kPunctuationBase + 1), 1.0 / 9.0, 1e-12);
  EXPECT_NEAR(f.Get(fl::kPunctuationBase + 4), 1.0 / 9.0, 1e-12);  // '!'
  // '/' is special char; find its index from the set string.
  const char* specials = fl::SpecialCharSet();
  int slash = static_cast<int>(std::string(specials).find('/'));
  EXPECT_NEAR(f.Get(fl::kSpecialCharBase + slash), 1.0 / 9.0, 1e-12);
}

TEST_F(ExtractorTest, WordShapeFractions) {
  SparseVector f = extractor_.ExtractPost("HIV meds are Bad toDay");
  EXPECT_NEAR(f.Get(fl::kShapeAllUpper), 0.2, 1e-12);
  EXPECT_NEAR(f.Get(fl::kShapeAllLower), 0.4, 1e-12);
  EXPECT_NEAR(f.Get(fl::kShapeFirstUpper), 0.2, 1e-12);
  EXPECT_NEAR(f.Get(fl::kShapeCamel), 0.2, 1e-12);
}

TEST_F(ExtractorTest, SentenceInitialCapRate) {
  SparseVector f = extractor_.ExtractPost("Good day. bad day.");
  EXPECT_NEAR(f.Get(fl::kShapeSentenceInitialCap), 0.5, 1e-12);
}

TEST_F(ExtractorTest, FunctionWordFrequencies) {
  SparseVector f = extractor_.ExtractPost("the cat and the dog");
  // "the" twice out of 5 words; "and" once.
  double the_freq = 0.0, and_freq = 0.0;
  for (const auto& [id, v] : f.entries()) {
    const std::string name = fl::FeatureName(id);
    if (name == "function_word[the]") the_freq = v;
    if (name == "function_word[and]") and_freq = v;
  }
  EXPECT_NEAR(the_freq, 0.4, 1e-12);
  EXPECT_NEAR(and_freq, 0.2, 1e-12);
}

TEST_F(ExtractorTest, MisspellingFrequencies) {
  SparseVector f = extractor_.ExtractPost("I cant beleive it recieve");
  int misspelling_features = 0;
  for (const auto& [id, v] : f.entries())
    if (std::string(fl::FeatureCategory(id)) == "misspellings")
      ++misspelling_features;
  EXPECT_EQ(misspelling_features, 2);  // beleive, recieve
}

TEST_F(ExtractorTest, PosTagFrequenciesSumToOne) {
  SparseVector f = extractor_.ExtractPost("The doctor gave me pills.");
  double total = 0.0;
  for (const auto& [id, v] : f.entries())
    if (std::string(fl::FeatureCategory(id)) == "pos_tags") total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(ExtractorTest, PosBigramFrequenciesSumToOne) {
  SparseVector f = extractor_.ExtractPost("The doctor gave me pills.");
  double total = 0.0;
  for (const auto& [id, v] : f.entries())
    if (std::string(fl::FeatureCategory(id)) == "pos_bigrams") total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(ExtractorTest, DeterministicExtraction) {
  const char* text = "My doctor gave me 20 mg of something; I feel OK!";
  EXPECT_EQ(extractor_.ExtractPost(text), extractor_.ExtractPost(text));
}

TEST_F(ExtractorTest, AllIdsWithinLayout) {
  SparseVector f = extractor_.ExtractPost(
      "The quick brown fox (2 of them!) jumps over 15 lazy dogs @ noon; "
      "I beleive it's AMAZING... don't you?");
  for (const auto& [id, v] : f.entries()) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, fl::kTotalFeatures);
    EXPECT_NE(v, 0.0);
  }
}

// A 2,000-word post mixing case, apostrophes, digits, misspellings,
// function words, sentence terminators and paragraph breaks.
std::string LongPost() {
  static const char* const kWords[] = {
      "the",     "Doctor",    "said",    "I",      "shouldn't",
      "take",    "500mg",     "of",      "ibuprofen", "because",
      "it",      "recieve",   "WebMD",   "HIV",    "definately",
      "walking", "happiness", "quickly", "Monday", "pain"};
  std::string text;
  for (int i = 0; i < 2000; ++i) {
    if (i > 0) text += (i % 97 == 0) ? "\n\n" : " ";
    text += kWords[(i * 7 + i / 20) % 20];
    if (i % 13 == 12)
      text += '.';
    else if (i % 29 == 28)
      text += "?!";
    else if (i % 11 == 10)
      text += ',';
  }
  return text;
}

TEST_F(ExtractorTest, EdgeCasesMatchPinnedValues) {
  // Inputs the forum generator never writes. The literals were taken from
  // the extractor before it was rewritten to count into fixed arrays, so
  // any drift in tokenizing, lowercasing, lookups or emission shows here
  // as well as in the forum-level pins.
  struct Pinned {
    std::string text;
    uint64_t hash;
  };
  const Pinned corpus[] = {
      {"", 0x47fe0d7eaf8e51e3ULL},
      {"   ", 0x1775e34c0dd979aaULL},
      {"\t\n \n", 0x1724d34c0d950752ULL},
      {"x\v\f. \v", 0x6d5850d1eeb62e24ULL},
      {"First line.\r\n\r\nSecond paragraph here.\r\nSame para.\n\n\nEnd",
       0x702355359bae8924ULL},
      {"H\xc3\xa9llo w\xc3\xb6rld", 0x6f8ead6f73ee3de4ULL},
      {"supercalifragilisticexpialidocious antidisestablishmentarianism "
       "and pneumonoultramicroscopicsilicovolcanoconiosis",
       0x44459dd98e1ae725ULL},
      {"'quoted' rock'n'roll don't", 0x9bb7ad2362b6af4bULL},
      {"What?! Really... \"Yes.\"", 0xc0ae1ef04ea49a7dULL},
      {"5mg 1,234 @5pm #tag", 0xaebfa8f13b8cbff2ULL},
      {"HIV WebMD iPhone Monday", 0x58ee2746c67cb02dULL},
      {LongPost(), 0x5bf01f65ece78f05ULL},
  };
  for (const Pinned& pinned : corpus) {
    SCOPED_TRACE(pinned.text.substr(0, 40));
    const SparseVector f = extractor_.ExtractPost(pinned.text);
    uint64_t h = Fnv1aValue(kFnv1aBasis, static_cast<uint64_t>(f.NumNonZero()));
    for (const auto& [id, value] : f.entries()) {
      h = Fnv1aValue(h, id);
      h = Fnv1aValue(h, std::bit_cast<uint64_t>(value));
    }
    EXPECT_EQ(h, pinned.hash) << std::hex << "0x" << h;
  }
}

TEST(YulesKTest, UniformRepetitionIncreasesK) {
  // All-distinct words: K == 0 (sum i^2 V_i == N).
  EXPECT_NEAR(YulesK({1, 1, 1, 1}), 0.0, 1e-9);
  // Heavy repetition: K > 0 and grows with concentration.
  const double k_mild = YulesK({2, 2, 1, 1});
  const double k_heavy = YulesK({6});
  EXPECT_GT(k_mild, 0.0);
  EXPECT_GT(k_heavy, k_mild);
}

TEST(YulesKTest, EmptyAndZeroCounts) {
  EXPECT_EQ(YulesK({}), 0.0);
  EXPECT_EQ(YulesK({0, 0}), 0.0);
}

}  // namespace
}  // namespace dehealth
