#ifndef DEHEALTH_TEXT_TOKENIZER_H_
#define DEHEALTH_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace dehealth {

/// Kind of a surface token.
enum class TokenKind {
  kWord,         // alphabetic, possibly with internal apostrophe: don't
  kNumber,       // all digits
  kPunctuation,  // . , ; : ! ? ' " ( ) - and friends
  kSpecial,      // @ # $ % ^ & * _ + = / \ | < > ~ ` [ ] { }
};

/// A token plus its classification. `text` views the tokenized text, which
/// must outlive the token.
struct Token {
  std::string_view text;
  TokenKind kind;

  bool operator==(const Token& other) const = default;
};

/// Orthographic shape of a word token (used by the "word shape" feature
/// family of Table I).
enum class WordShape {
  kAllLower,        // "health"
  kAllUpper,        // "HIV"
  kFirstUpper,      // "Monday"
  kCamel,           // "WebMD", "iPhone" (mixed case, not the above)
  kOther,           // contains non-letters
};

/// Classifies the case shape of `word`.
WordShape ClassifyWordShape(std::string_view word);

/// Splits raw post text into classified tokens. Whitespace separates tokens;
/// punctuation and special characters are emitted as single-character tokens
/// even when glued to words ("pain," -> "pain" + ","). Apostrophes inside a
/// word are kept ("don't").
std::vector<Token> Tokenize(std::string_view text);

/// Convenience: only the word tokens, in order.
std::vector<std::string> TokenizeWords(std::string_view text);

/// Splits text into sentences on ./!/? boundaries (quote- and
/// whitespace-tolerant). A trailing fragment without a terminator counts as a
/// sentence. Each sentence views a contiguous, left-trimmed range of `text`.
std::vector<std::string_view> SplitSentences(std::string_view text);

/// Splits text into paragraphs on blank lines. Each paragraph views a
/// contiguous, left-trimmed range of `text`.
std::vector<std::string_view> SplitParagraphs(std::string_view text);

}  // namespace dehealth

#endif  // DEHEALTH_TEXT_TOKENIZER_H_
