#include "text/pos_tagger.h"

#include <utility>
#include <vector>

#include "common/string_utils.h"
#include "text/word_table.h"

namespace dehealth {

namespace {

const WordTable& ClosedClassLexicon() {
  static const std::pair<std::string_view, PosTag> kEntries[] = {
      // Determiners.
      {"the", PosTag::kDT}, {"a", PosTag::kDT}, {"an", PosTag::kDT},
      {"this", PosTag::kDT}, {"that", PosTag::kDT}, {"these", PosTag::kDT},
      {"those", PosTag::kDT}, {"each", PosTag::kDT}, {"every", PosTag::kDT},
      {"some", PosTag::kDT}, {"any", PosTag::kDT}, {"no", PosTag::kDT},
      {"another", PosTag::kDT}, {"either", PosTag::kDT},
      {"neither", PosTag::kDT},
      // Predeterminers.
      {"all", PosTag::kPDT}, {"both", PosTag::kPDT}, {"half", PosTag::kPDT},
      // Personal pronouns.
      {"i", PosTag::kPRP}, {"you", PosTag::kPRP}, {"he", PosTag::kPRP},
      {"she", PosTag::kPRP}, {"it", PosTag::kPRP}, {"we", PosTag::kPRP},
      {"they", PosTag::kPRP}, {"me", PosTag::kPRP}, {"him", PosTag::kPRP},
      {"them", PosTag::kPRP}, {"us", PosTag::kPRP}, {"myself", PosTag::kPRP},
      {"yourself", PosTag::kPRP}, {"himself", PosTag::kPRP},
      {"herself", PosTag::kPRP}, {"itself", PosTag::kPRP},
      {"ourselves", PosTag::kPRP}, {"themselves", PosTag::kPRP},
      {"someone", PosTag::kPRP}, {"anyone", PosTag::kPRP},
      {"everyone", PosTag::kPRP}, {"nobody", PosTag::kPRP},
      {"somebody", PosTag::kPRP}, {"anybody", PosTag::kPRP},
      {"everybody", PosTag::kPRP}, {"something", PosTag::kPRP},
      {"anything", PosTag::kPRP}, {"everything", PosTag::kPRP},
      {"nothing", PosTag::kPRP},
      // Possessive pronouns.
      {"my", PosTag::kPRPS}, {"your", PosTag::kPRPS}, {"his", PosTag::kPRPS},
      {"her", PosTag::kPRPS}, {"its", PosTag::kPRPS}, {"our", PosTag::kPRPS},
      {"their", PosTag::kPRPS}, {"mine", PosTag::kPRPS},
      {"yours", PosTag::kPRPS}, {"hers", PosTag::kPRPS},
      {"ours", PosTag::kPRPS}, {"theirs", PosTag::kPRPS},
      // Prepositions / subordinating conjunctions.
      {"in", PosTag::kIN}, {"on", PosTag::kIN}, {"at", PosTag::kIN},
      {"by", PosTag::kIN}, {"for", PosTag::kIN}, {"with", PosTag::kIN},
      {"about", PosTag::kIN}, {"against", PosTag::kIN},
      {"between", PosTag::kIN}, {"into", PosTag::kIN},
      {"through", PosTag::kIN}, {"during", PosTag::kIN},
      {"before", PosTag::kIN}, {"after", PosTag::kIN},
      {"above", PosTag::kIN}, {"below", PosTag::kIN}, {"from", PosTag::kIN},
      {"of", PosTag::kIN}, {"since", PosTag::kIN}, {"under", PosTag::kIN},
      {"over", PosTag::kIN}, {"without", PosTag::kIN},
      {"within", PosTag::kIN}, {"along", PosTag::kIN},
      {"across", PosTag::kIN}, {"behind", PosTag::kIN},
      {"beyond", PosTag::kIN}, {"except", PosTag::kIN},
      {"toward", PosTag::kIN}, {"towards", PosTag::kIN},
      {"upon", PosTag::kIN}, {"despite", PosTag::kIN},
      {"unless", PosTag::kIN}, {"until", PosTag::kIN},
      {"while", PosTag::kIN}, {"because", PosTag::kIN},
      {"although", PosTag::kIN}, {"though", PosTag::kIN},
      {"whether", PosTag::kIN}, {"if", PosTag::kIN}, {"as", PosTag::kIN},
      {"per", PosTag::kIN}, {"like", PosTag::kIN},
      // Coordinating conjunctions.
      {"and", PosTag::kCC}, {"or", PosTag::kCC}, {"but", PosTag::kCC},
      {"nor", PosTag::kCC}, {"yet", PosTag::kCC}, {"so", PosTag::kCC},
      {"plus", PosTag::kCC},
      // Modals.
      {"can", PosTag::kMD}, {"could", PosTag::kMD}, {"may", PosTag::kMD},
      {"might", PosTag::kMD}, {"must", PosTag::kMD}, {"shall", PosTag::kMD},
      {"should", PosTag::kMD}, {"will", PosTag::kMD},
      {"would", PosTag::kMD}, {"ought", PosTag::kMD},
      {"cannot", PosTag::kMD},
      // Auxiliaries / common verbs (fixed readings).
      {"am", PosTag::kVBP}, {"are", PosTag::kVBP}, {"is", PosTag::kVBZ},
      {"was", PosTag::kVBD}, {"were", PosTag::kVBD}, {"be", PosTag::kVB},
      {"been", PosTag::kVBN}, {"being", PosTag::kVBG},
      {"do", PosTag::kVBP}, {"does", PosTag::kVBZ}, {"did", PosTag::kVBD},
      {"have", PosTag::kVBP}, {"has", PosTag::kVBZ}, {"had", PosTag::kVBD},
      {"get", PosTag::kVB}, {"got", PosTag::kVBD}, {"go", PosTag::kVB},
      {"went", PosTag::kVBD}, {"gone", PosTag::kVBN},
      {"take", PosTag::kVB}, {"took", PosTag::kVBD},
      {"taken", PosTag::kVBN}, {"make", PosTag::kVB},
      {"made", PosTag::kVBD}, {"know", PosTag::kVBP},
      {"knew", PosTag::kVBD}, {"known", PosTag::kVBN},
      {"think", PosTag::kVBP}, {"thought", PosTag::kVBD},
      {"feel", PosTag::kVBP}, {"felt", PosTag::kVBD},
      {"see", PosTag::kVBP}, {"saw", PosTag::kVBD}, {"seen", PosTag::kVBN},
      {"say", PosTag::kVBP}, {"said", PosTag::kVBD},
      {"tell", PosTag::kVB}, {"told", PosTag::kVBD},
      {"give", PosTag::kVB}, {"gave", PosTag::kVBD},
      {"given", PosTag::kVBN}, {"find", PosTag::kVB},
      {"found", PosTag::kVBD}, {"keep", PosTag::kVB},
      {"kept", PosTag::kVBD}, {"let", PosTag::kVB},
      {"began", PosTag::kVBD}, {"begun", PosTag::kVBN},
      // "to".
      {"to", PosTag::kTO},
      // Existential there.
      {"there", PosTag::kEX},
      // Wh-words.
      {"which", PosTag::kWDT}, {"whatever", PosTag::kWDT},
      {"who", PosTag::kWP}, {"whom", PosTag::kWP}, {"whose", PosTag::kWP},
      {"what", PosTag::kWP},
      {"when", PosTag::kWRB}, {"where", PosTag::kWRB},
      {"why", PosTag::kWRB}, {"how", PosTag::kWRB},
      // Adverbs (closed set of frequent ones).
      {"not", PosTag::kRB}, {"n't", PosTag::kRB}, {"very", PosTag::kRB},
      {"too", PosTag::kRB}, {"also", PosTag::kRB}, {"just", PosTag::kRB},
      {"now", PosTag::kRB}, {"then", PosTag::kRB}, {"here", PosTag::kRB},
      {"never", PosTag::kRB}, {"always", PosTag::kRB},
      {"often", PosTag::kRB}, {"again", PosTag::kRB},
      {"still", PosTag::kRB}, {"even", PosTag::kRB},
      {"already", PosTag::kRB}, {"maybe", PosTag::kRB},
      {"perhaps", PosTag::kRB}, {"soon", PosTag::kRB},
      {"really", PosTag::kRB}, {"quite", PosTag::kRB},
      // Comparative/superlative adverbs.
      {"more", PosTag::kRBR}, {"less", PosTag::kRBR},
      {"most", PosTag::kRBS}, {"least", PosTag::kRBS},
      // Particles.
      {"up", PosTag::kRP}, {"down", PosTag::kRP}, {"out", PosTag::kRP},
      {"off", PosTag::kRP}, {"away", PosTag::kRP}, {"back", PosTag::kRP},
      // Interjections.
      {"oh", PosTag::kUH}, {"hi", PosTag::kUH}, {"hello", PosTag::kUH},
      {"hey", PosTag::kUH}, {"wow", PosTag::kUH}, {"ouch", PosTag::kUH},
      {"yes", PosTag::kUH}, {"yeah", PosTag::kUH}, {"please", PosTag::kUH},
      {"thanks", PosTag::kUH}, {"ok", PosTag::kUH}, {"okay", PosTag::kUH},
      // Common adjectives with suffix-ambiguous forms.
      {"good", PosTag::kJJ}, {"bad", PosTag::kJJ}, {"new", PosTag::kJJ},
      {"old", PosTag::kJJ}, {"high", PosTag::kJJ}, {"low", PosTag::kJJ},
      {"big", PosTag::kJJ}, {"small", PosTag::kJJ}, {"same", PosTag::kJJ},
      {"other", PosTag::kJJ}, {"sick", PosTag::kJJ}, {"sore", PosTag::kJJ},
      {"better", PosTag::kJJR}, {"worse", PosTag::kJJR},
      {"best", PosTag::kJJS}, {"worst", PosTag::kJJS},
      {"many", PosTag::kJJ}, {"few", PosTag::kJJ}, {"much", PosTag::kJJ},
      {"several", PosTag::kJJ}, {"own", PosTag::kJJ},
  };
  static const WordTable& lex = *new WordTable([] {
    std::vector<std::pair<std::string_view, int>> words;
    for (const auto& [word, tag] : kEntries)
      words.emplace_back(word, static_cast<int>(tag));
    return words;
  }());
  return lex;
}

}  // namespace

const char* PosTagName(PosTag tag) {
  switch (tag) {
    case PosTag::kCC: return "CC";
    case PosTag::kCD: return "CD";
    case PosTag::kDT: return "DT";
    case PosTag::kEX: return "EX";
    case PosTag::kIN: return "IN";
    case PosTag::kJJ: return "JJ";
    case PosTag::kJJR: return "JJR";
    case PosTag::kJJS: return "JJS";
    case PosTag::kMD: return "MD";
    case PosTag::kNN: return "NN";
    case PosTag::kNNS: return "NNS";
    case PosTag::kNNP: return "NNP";
    case PosTag::kPDT: return "PDT";
    case PosTag::kPRP: return "PRP";
    case PosTag::kPRPS: return "PRP$";
    case PosTag::kRB: return "RB";
    case PosTag::kRBR: return "RBR";
    case PosTag::kRBS: return "RBS";
    case PosTag::kRP: return "RP";
    case PosTag::kTO: return "TO";
    case PosTag::kUH: return "UH";
    case PosTag::kVB: return "VB";
    case PosTag::kVBD: return "VBD";
    case PosTag::kVBG: return "VBG";
    case PosTag::kVBN: return "VBN";
    case PosTag::kVBP: return "VBP";
    case PosTag::kVBZ: return "VBZ";
    case PosTag::kWDT: return "WDT";
    case PosTag::kWP: return "WP";
    case PosTag::kWRB: return "WRB";
    case PosTag::kPunct: return "PUNCT";
    case PosTag::kSym: return "SYM";
    case PosTag::kTagCount: break;
  }
  return "??";
}

PosTagger::PosTagger() = default;

PosTag PosTagger::TagWord(std::string_view lower, std::string_view original,
                          PosTag prev) const {
  if (const int tag = ClosedClassLexicon().Find(lower); tag >= 0) {
    // Context fix: "that"/"this" after a preposition or verb reading stays
    // DT; "there" only EX before a be-verb — too costly to look ahead, so we
    // accept the lexicon reading. One cheap adjustment: possessive pronoun vs
    // personal pronoun for "her" handled by the lexicon (PRP$ reading).
    return static_cast<PosTag>(tag);
  }
  // Morphological heuristics, most specific first.
  if (EndsWith(lower, "ing") && lower.size() > 4) return PosTag::kVBG;
  if (EndsWith(lower, "ed") && lower.size() > 3) return PosTag::kVBD;
  if (EndsWith(lower, "ly") && lower.size() > 3) return PosTag::kRB;
  if (EndsWith(lower, "ous") || EndsWith(lower, "ful") ||
      EndsWith(lower, "ible") || EndsWith(lower, "able") ||
      EndsWith(lower, "ive") || EndsWith(lower, "ical") ||
      EndsWith(lower, "less"))
    return PosTag::kJJ;
  if (EndsWith(lower, "er") && lower.size() > 4 &&
      prev == PosTag::kRB)
    return PosTag::kJJR;
  if (EndsWith(lower, "est") && lower.size() > 4) return PosTag::kJJS;
  if (EndsWith(lower, "tion") || EndsWith(lower, "sion") ||
      EndsWith(lower, "ment") || EndsWith(lower, "ness") ||
      EndsWith(lower, "ity") || EndsWith(lower, "ance") ||
      EndsWith(lower, "ence"))
    return PosTag::kNN;
  // Proper noun: capitalized and not sentence-initial-only heuristic — we
  // treat any capitalized non-lexicon word as NNP.
  if (!original.empty() && IsAsciiUpper(original[0])) return PosTag::kNNP;
  // Verb reading after "to" or a modal.
  if (prev == PosTag::kTO || prev == PosTag::kMD) return PosTag::kVB;
  // 3rd-person verb vs plural noun for trailing -s: after a pronoun, prefer
  // the verb reading; otherwise plural noun.
  if (EndsWith(lower, "s") && lower.size() > 3 &&
      !EndsWith(lower, "ss")) {
    if (prev == PosTag::kPRP || prev == PosTag::kNNP) return PosTag::kVBZ;
    return PosTag::kNNS;
  }
  return PosTag::kNN;
}

PosTag PosTagger::TagToken(const Token& token, std::string_view lower,
                           PosTag prev) const {
  switch (token.kind) {
    case TokenKind::kNumber:
      return PosTag::kCD;
    case TokenKind::kPunctuation:
      return PosTag::kPunct;
    case TokenKind::kSpecial:
      return PosTag::kSym;
    case TokenKind::kWord:
    default:
      return TagWord(lower, token.text, prev);
  }
}

std::vector<PosTag> PosTagger::Tag(const std::vector<Token>& tokens) const {
  std::vector<PosTag> tags;
  tags.reserve(tokens.size());
  PosTag prev = PosTag::kPunct;  // Sentence-start sentinel.
  for (const Token& t : tokens) {
    prev = TagToken(t, ToLowerAscii(t.text), prev);
    tags.push_back(prev);
  }
  return tags;
}

std::vector<PosTag> PosTagger::TagText(std::string_view text) const {
  return Tag(Tokenize(text));
}

}  // namespace dehealth
