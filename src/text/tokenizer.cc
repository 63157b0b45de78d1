#include "text/tokenizer.h"

#include "common/string_utils.h"

namespace dehealth {

namespace {

bool IsPunctuationChar(char c) {
  switch (c) {
    case '.':
    case ',':
    case ';':
    case ':':
    case '!':
    case '?':
    case '\'':
    case '"':
    case '(':
    case ')':
    case '-':
      return true;
    default:
      return false;
  }
}

}  // namespace

WordShape ClassifyWordShape(std::string_view word) {
  if (word.empty()) return WordShape::kOther;
  bool any_lower = false, any_upper = false, all_letters = true;
  for (char c : word) {
    if (!IsAsciiLetter(c)) {
      // Internal apostrophes do not change the shape class.
      if (c == '\'') continue;
      all_letters = false;
      break;
    }
    if (IsAsciiLower(c)) any_lower = true;
    if (IsAsciiUpper(c)) any_upper = true;
  }
  if (!all_letters) return WordShape::kOther;
  if (!any_upper) return WordShape::kAllLower;
  if (!any_lower) return WordShape::kAllUpper;
  const bool first_upper = IsAsciiUpper(word[0]);
  if (first_upper) {
    // "Monday" vs "WebMD": first-upper means the only uppercase letter is
    // the initial one.
    bool interior_upper = false;
    for (size_t i = 1; i < word.size(); ++i)
      if (IsAsciiUpper(word[i])) interior_upper = true;
    return interior_upper ? WordShape::kCamel : WordShape::kFirstUpper;
  }
  return WordShape::kCamel;
}

std::vector<Token> Tokenize(std::string_view text) {
  std::vector<Token> tokens;
  tokens.reserve(text.size() / 4 + 1);
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    const char c = text[i];
    if (IsAsciiSpace(c)) {
      ++i;
      continue;
    }
    if (IsAsciiLetter(c)) {
      size_t j = i + 1;
      while (j < n &&
             (IsAsciiLetter(text[j]) ||
              // Keep internal apostrophes: don't, it's.
              (text[j] == '\'' && j + 1 < n && IsAsciiLetter(text[j + 1])))) {
        ++j;
      }
      tokens.push_back({text.substr(i, j - i), TokenKind::kWord});
      i = j;
      continue;
    }
    if (IsAsciiDigit(c)) {
      size_t j = i + 1;
      while (j < n && IsAsciiDigit(text[j])) ++j;
      tokens.push_back({text.substr(i, j - i), TokenKind::kNumber});
      i = j;
      continue;
    }
    tokens.push_back({text.substr(i, 1), IsPunctuationChar(c)
                                             ? TokenKind::kPunctuation
                                             : TokenKind::kSpecial});
    ++i;
  }
  return tokens;
}

std::vector<std::string> TokenizeWords(std::string_view text) {
  std::vector<std::string> words;
  for (const Token& t : Tokenize(text))
    if (t.kind == TokenKind::kWord) words.emplace_back(t.text);
  return words;
}

namespace {

/// Appends text[begin, end) to `out`, left-trimmed, unless it is blank.
void PushTrimmed(std::string_view text, size_t begin, size_t end,
                 std::vector<std::string_view>* out) {
  const size_t b = text.substr(begin, end - begin).find_first_not_of(" \t\n\r");
  if (b != std::string_view::npos)
    out->push_back(text.substr(begin + b, end - begin - b));
}

}  // namespace

std::vector<std::string_view> SplitSentences(std::string_view text) {
  std::vector<std::string_view> sentences;
  size_t start = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '.' || c == '!' || c == '?') {
      // Absorb consecutive terminators and closing quotes: "What?!".
      size_t j = i + 1;
      while (j < text.size() && (text[j] == '.' || text[j] == '!' ||
                                 text[j] == '?' || text[j] == '"' ||
                                 text[j] == '\'')) {
        ++j;
      }
      PushTrimmed(text, start, j, &sentences);
      start = j;
      i = j - 1;
    }
  }
  PushTrimmed(text, start, text.size(), &sentences);
  return sentences;
}

std::vector<std::string_view> SplitParagraphs(std::string_view text) {
  std::vector<std::string_view> paragraphs;
  size_t start = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    // A blank line (two consecutive newlines, possibly with spaces between)
    // ends a paragraph; the next one starts after the second newline.
    if (text[i] != '\n') continue;
    size_t j = i + 1;
    while (j < text.size() && (text[j] == ' ' || text[j] == '\t')) ++j;
    if (j < text.size() && text[j] == '\n') {
      PushTrimmed(text, start, i, &paragraphs);
      start = j + 1;
      i = j;
    }
  }
  PushTrimmed(text, start, text.size(), &paragraphs);
  return paragraphs;
}

}  // namespace dehealth
