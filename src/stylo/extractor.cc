#include "stylo/extractor.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>

#include "common/string_utils.h"
#include "stylo/feature_layout.h"
#include "text/lexicon.h"
#include "text/tokenizer.h"

namespace dehealth {

namespace fl = feature_layout;

namespace {

/// K from the token count n and sum_i i^2 * V_i (which equals the sum of
/// each type's squared count). Every term is an integer, so the sum is
/// exact in any order.
double YulesKFromMoments(long long n, double sum_i2_vi) {
  if (n < 1) return 0.0;
  const double nd = static_cast<double>(n);
  return 1e4 * (sum_i2_vi - nd) / (nd * nd);
}

}  // namespace

double YulesK(const std::vector<int>& type_counts) {
  long long n = 0;
  double sum_i2_vi = 0.0;
  for (int c : type_counts) {
    if (c <= 0) continue;
    n += c;
    sum_i2_vi += static_cast<double>(c) * c;
  }
  return YulesKFromMoments(n, sum_i2_vi);
}

namespace {

int ShapeBandOffset(WordShape shape) {
  switch (shape) {
    case WordShape::kAllUpper: return 0;
    case WordShape::kAllLower: return 1;
    case WordShape::kFirstUpper: return 2;
    case WordShape::kCamel: return 3;
    case WordShape::kOther: return -1;
  }
  return -1;
}

/// Position of every byte in a character set (-1 when absent), so the
/// character pass does one load per byte instead of a strchr.
std::array<int8_t, 256> CharSetIndex(const char* set) {
  std::array<int8_t, 256> index;
  index.fill(-1);
  for (int i = 0; set[i] != '\0'; ++i)
    index[static_cast<unsigned char>(set[i])] = static_cast<int8_t>(i);
  return index;
}

}  // namespace

SparseVector FeatureExtractor::ExtractPost(std::string_view text) const {
  if (text.empty()) return SparseVector();

  // Every feature is written into one dense array and the nonzero entries
  // are emitted once, in id order, at the end. Each id is written at most
  // once and a zero is absent, so this is exactly the vector the sequence
  // of SparseVector::Set calls it replaces would build.
  std::array<double, fl::kTotalFeatures> f{};

  const std::vector<Token> tokens = Tokenize(text);
  // The post lowercased once: a token's lowercase form is the view at the
  // same offsets. The tagger, both lexicons and the type counter read it.
  std::string lower_text(text);
  for (char& c : lower_text) c = LowerAsciiChar(c);
  const auto lower_of = [&](std::string_view token) {
    return std::string_view(lower_text)
        .substr(static_cast<size_t>(token.data() - text.data()),
                token.size());
  };
  size_t num_word_tokens = 0;
  for (const Token& t : tokens)
    if (t.kind == TokenKind::kWord) ++num_word_tokens;
  const double num_words = static_cast<double>(num_word_tokens);

  // ---- Length features ----
  const double num_chars = static_cast<double>(text.size());
  f[fl::kNumChars] = num_chars;
  f[fl::kNumParagraphs] = static_cast<double>(SplitParagraphs(text).size());
  if (num_words > 0) {
    double total_word_chars = 0;
    for (const Token& w : tokens)
      if (w.kind == TokenKind::kWord)
        total_word_chars += static_cast<double>(w.text.size());
    f[fl::kAvgCharsPerWord] = total_word_chars / num_words;
  }

  // ---- Word length frequencies (1..20) ----
  if (num_words > 0) {
    int length_counts[fl::kNumWordLengths] = {};
    for (const Token& w : tokens) {
      if (w.kind != TokenKind::kWord) continue;
      int len = static_cast<int>(w.text.size());
      if (len >= 1) {
        if (len > fl::kNumWordLengths) len = fl::kNumWordLengths;
        ++length_counts[len - 1];
      }
    }
    for (int i = 0; i < fl::kNumWordLengths; ++i)
      if (length_counts[i] > 0)
        f[fl::kWordLengthBase + i] = length_counts[i] / num_words;
  }

  // ---- Vocabulary richness ----
  // Types are runs of equal lowercase words once sorted. The order is by a
  // word's first 8 bytes read as one big-endian integer, then by length,
  // then by the bytes after the 8th: any order that makes equal words
  // adjacent will do, and this one compares integers almost always.
  if (num_words > 0) {
    struct KeyedWord {
      uint64_t key;
      std::string_view word;
    };
    std::vector<KeyedWord> words;
    words.reserve(num_word_tokens);
    for (const Token& w : tokens) {
      if (w.kind != TokenKind::kWord) continue;
      const std::string_view lower = lower_of(w.text);
      uint64_t key = 0;
      for (size_t i = 0; i < 8; ++i)
        key = key << 8 |
              (i < lower.size() ? static_cast<unsigned char>(lower[i]) : 0u);
      words.push_back({key, lower});
    }
    std::sort(words.begin(), words.end(),
              [](const KeyedWord& a, const KeyedWord& b) {
                if (a.key != b.key) return a.key < b.key;
                if (a.word.size() != b.word.size())
                  return a.word.size() < b.word.size();
                return a.word.size() > 8 && a.word.substr(8) < b.word.substr(8);
              });
    double sum_i2_vi = 0.0;
    size_t num_types = 0;
    int legomena[4] = {};  // types occurring exactly 1..4 times
    for (size_t i = 0; i < words.size();) {
      size_t j = i + 1;
      while (j < words.size() && words[j].word == words[i].word) ++j;
      const int c = static_cast<int>(j - i);
      sum_i2_vi += static_cast<double>(c) * c;
      if (c <= 4) ++legomena[c - 1];
      ++num_types;
      i = j;
    }
    f[fl::kYulesK] = YulesKFromMoments(
        static_cast<long long>(num_word_tokens), sum_i2_vi);
    const double types = static_cast<double>(num_types);
    if (legomena[0] > 0) f[fl::kHapaxLegomena] = legomena[0] / types;
    if (legomena[1] > 0) f[fl::kDisLegomena] = legomena[1] / types;
    if (legomena[2] > 0) f[fl::kTrisLegomena] = legomena[2] / types;
    if (legomena[3] > 0) f[fl::kTetrakisLegomena] = legomena[3] / types;
  }

  // ---- Character-class frequencies ----
  static const std::array<int8_t, 256> special_index =
      CharSetIndex(fl::SpecialCharSet());
  static const std::array<int8_t, 256> punct_index =
      CharSetIndex(fl::PunctuationSet());
  int letter_counts[26] = {};
  int digit_counts[10] = {};
  int special_counts[fl::kNumSpecialChars] = {};
  int punct_counts[fl::kNumPunctuation] = {};
  int total_letters = 0, total_upper = 0;
  for (char c : text) {
    if (IsAsciiLetter(c)) {
      ++total_letters;
      if (IsAsciiUpper(c)) ++total_upper;
      ++letter_counts[LowerAsciiChar(c) - 'a'];
    } else if (IsAsciiDigit(c)) {
      ++digit_counts[c - '0'];
    } else {
      const auto uc = static_cast<unsigned char>(c);
      if (const int i = special_index[uc]; i >= 0) ++special_counts[i];
      if (const int i = punct_index[uc]; i >= 0) ++punct_counts[i];
    }
  }
  if (total_letters > 0) {
    for (int i = 0; i < 26; ++i)
      if (letter_counts[i] > 0)
        f[fl::kLetterBase + i] =
            letter_counts[i] / static_cast<double>(total_letters);
    f[fl::kUppercasePct] = total_upper / static_cast<double>(total_letters);
  }
  for (int i = 0; i < 10; ++i)
    if (digit_counts[i] > 0)
      f[fl::kDigitBase + i] = digit_counts[i] / num_chars;
  for (int i = 0; i < fl::kNumSpecialChars; ++i)
    if (special_counts[i] > 0)
      f[fl::kSpecialCharBase + i] = special_counts[i] / num_chars;
  for (int i = 0; i < fl::kNumPunctuation; ++i)
    if (punct_counts[i] > 0)
      f[fl::kPunctuationBase + i] = punct_counts[i] / num_chars;

  // ---- Word shape ----
  if (num_words > 0) {
    int shape_counts[5] = {};  // upper, lower, first, camel, other
    int band_counts[3][4] = {};
    int apostrophe_words = 0, transitions = 0, brand_words = 0;
    WordShape prev_shape = WordShape::kOther;
    bool have_prev = false;
    for (const Token& w : tokens) {
      if (w.kind != TokenKind::kWord) continue;
      const WordShape shape = ClassifyWordShape(w.text);
      const int off = ShapeBandOffset(shape);
      if (off >= 0) {
        ++shape_counts[off];
        const size_t len = w.text.size();
        const int band = len <= 3 ? 0 : (len <= 6 ? 1 : 2);
        ++band_counts[band][off];
      } else {
        ++shape_counts[4];
      }
      if (w.text.find('\'') != std::string_view::npos) ++apostrophe_words;
      if (shape == WordShape::kAllUpper || shape == WordShape::kCamel)
        ++brand_words;
      if (have_prev && shape != prev_shape) ++transitions;
      prev_shape = shape;
      have_prev = true;
    }
    const int shape_ids[4] = {fl::kShapeAllUpper, fl::kShapeAllLower,
                              fl::kShapeFirstUpper, fl::kShapeCamel};
    for (int i = 0; i < 4; ++i)
      if (shape_counts[i] > 0) f[shape_ids[i]] = shape_counts[i] / num_words;
    if (shape_counts[4] > 0) f[fl::kShapeOther] = shape_counts[4] / num_words;
    const int band_bases[3] = {fl::kShapeShortBase, fl::kShapeMediumBase,
                               fl::kShapeLongBase};
    for (int b = 0; b < 3; ++b)
      for (int i = 0; i < 4; ++i)
        if (band_counts[b][i] > 0)
          f[band_bases[b] + i] = band_counts[b][i] / num_words;
    if (apostrophe_words > 0)
      f[fl::kShapeApostropheRate] = apostrophe_words / num_words;
    if (transitions > 0 && num_word_tokens > 1)
      f[fl::kShapeTransitionRate] =
          transitions / static_cast<double>(num_word_tokens - 1);
    if (brand_words > 0) f[fl::kShapeBrandRate] = brand_words / num_words;
    // Sentence-initial capitalization rate.
    const std::vector<std::string_view> sentences = SplitSentences(text);
    if (!sentences.empty()) {
      int capped = 0;
      for (std::string_view s : sentences) {
        for (char c : s) {
          if (IsAsciiLetter(c)) {
            if (IsAsciiUpper(c)) ++capped;
            break;
          }
        }
      }
      if (capped > 0)
        f[fl::kShapeSentenceInitialCap] =
            capped / static_cast<double>(sentences.size());
    }
  }

  // ---- Function words & misspellings ----
  if (num_words > 0) {
    int fw_counts[fl::kNumFunctionWords] = {};
    int ms_counts[fl::kNumMisspellings] = {};
    for (const Token& w : tokens) {
      if (w.kind != TokenKind::kWord) continue;
      const std::string_view lower = lower_of(w.text);
      if (int idx = FunctionWordIndex(lower); idx >= 0) ++fw_counts[idx];
      if (int idx = MisspellingIndex(lower); idx >= 0) ++ms_counts[idx];
    }
    for (int i = 0; i < fl::kNumFunctionWords; ++i)
      if (fw_counts[i] > 0)
        f[fl::kFunctionWordBase + i] = fw_counts[i] / num_words;
    for (int i = 0; i < fl::kNumMisspellings; ++i)
      if (ms_counts[i] > 0)
        f[fl::kMisspellingBase + i] = ms_counts[i] / num_words;
  }

  // ---- POS tags & bigrams ----
  if (!tokens.empty()) {
    int tag_counts[kNumPosTags] = {};
    int bigram_counts[kNumPosBigrams] = {};
    PosTag prev = PosTag::kPunct;  // Sentence-start sentinel.
    for (size_t i = 0; i < tokens.size(); ++i) {
      const PosTag tag =
          tagger_.TagToken(tokens[i], lower_of(tokens[i].text), prev);
      ++tag_counts[static_cast<int>(tag)];
      if (i > 0) ++bigram_counts[PosBigramId(prev, tag)];
      prev = tag;
    }
    const double num_tags = static_cast<double>(tokens.size());
    for (int t = 0; t < kNumPosTags; ++t)
      if (tag_counts[t] > 0) f[fl::kPosTagBase + t] = tag_counts[t] / num_tags;
    if (tokens.size() > 1) {
      const double num_bigrams = static_cast<double>(tokens.size() - 1);
      for (int b = 0; b < kNumPosBigrams; ++b)
        if (bigram_counts[b] > 0)
          f[fl::kPosBigramBase + b] = bigram_counts[b] / num_bigrams;
    }
  }

  const auto nonzero = static_cast<size_t>(
      std::count_if(f.begin(), f.end(), [](double v) { return v != 0.0; }));
  std::vector<std::pair<int, double>> entries;
  entries.reserve(nonzero);
  for (int id = 0; id < fl::kTotalFeatures; ++id)
    if (f[static_cast<size_t>(id)] != 0.0)
      entries.emplace_back(id, f[static_cast<size_t>(id)]);
  return SparseVector::FromSortedEntries(std::move(entries));
}

}  // namespace dehealth
