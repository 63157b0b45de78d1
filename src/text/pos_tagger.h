#ifndef DEHEALTH_TEXT_POS_TAGGER_H_
#define DEHEALTH_TEXT_POS_TAGGER_H_

#include <string_view>
#include <vector>

#include "text/tokenizer.h"

namespace dehealth {

/// Penn-Treebank-style part-of-speech tags (plus token-class tags for
/// numbers, punctuation, and symbols). The tagger is deterministic — the
/// stylometric pipeline needs stable, author-discriminative tag frequencies,
/// not linguistic perfection.
enum class PosTag : int {
  kCC = 0,  // coordinating conjunction
  kCD,      // cardinal number
  kDT,      // determiner
  kEX,      // existential "there"
  kIN,      // preposition / subordinating conjunction
  kJJ,      // adjective
  kJJR,     // adjective, comparative
  kJJS,     // adjective, superlative
  kMD,      // modal
  kNN,      // noun, singular
  kNNS,     // noun, plural
  kNNP,     // proper noun
  kPDT,     // predeterminer
  kPRP,     // personal pronoun
  kPRPS,    // possessive pronoun (PRP$)
  kRB,      // adverb
  kRBR,     // adverb, comparative
  kRBS,     // adverb, superlative
  kRP,      // particle
  kTO,      // "to"
  kUH,      // interjection
  kVB,      // verb, base
  kVBD,     // verb, past tense
  kVBG,     // verb, gerund
  kVBN,     // verb, past participle
  kVBP,     // verb, non-3rd-person present
  kVBZ,     // verb, 3rd-person singular present
  kWDT,     // wh-determiner
  kWP,      // wh-pronoun
  kWRB,     // wh-adverb
  kPunct,   // punctuation token
  kSym,     // other symbol
  kTagCount
};

/// Number of distinct tags emitted by the tagger.
constexpr int kNumPosTags = static_cast<int>(PosTag::kTagCount);

/// Stable string name of a tag ("NN", "VBD", ...).
const char* PosTagName(PosTag tag);

/// Deterministic lexicon + suffix-rule POS tagger.
///
/// Resolution order per token: token class (number/punct/symbol), then a
/// closed-class lexicon (determiners, pronouns, prepositions, modals,
/// auxiliaries, common verbs), then morphology (suffix heuristics), then a
/// one-token context adjustment (e.g. a noun reading after a determiner),
/// with NN as the default.
class PosTagger {
 public:
  PosTagger();

  /// Tags a pre-tokenized sequence. Output has the same length as `tokens`.
  std::vector<PosTag> Tag(const std::vector<Token>& tokens) const;

  /// Tokenizes then tags raw text.
  std::vector<PosTag> TagText(std::string_view text) const;

  /// Tags one token given its ASCII-lowercased text and the tag of the
  /// token before it (kPunct at the start of a text). Tag() is this over a
  /// sequence; callers that already hold the lowercase text use it directly.
  PosTag TagToken(const Token& token, std::string_view lower,
                  PosTag prev) const;

 private:
  PosTag TagWord(std::string_view lower, std::string_view original,
                 PosTag prev) const;
};

/// Packs two tags into a bigram id in [0, kNumPosTags^2).
constexpr int PosBigramId(PosTag a, PosTag b) {
  return static_cast<int>(a) * kNumPosTags + static_cast<int>(b);
}

/// Number of possible tag bigrams.
constexpr int kNumPosBigrams = kNumPosTags * kNumPosTags;

}  // namespace dehealth

#endif  // DEHEALTH_TEXT_POS_TAGGER_H_
