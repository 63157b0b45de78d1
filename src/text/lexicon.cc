#include "text/lexicon.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "common/string_utils.h"
#include "text/word_table.h"

namespace dehealth {

namespace {

// 337 English function words (articles, pronouns, prepositions, conjunctions,
// auxiliaries, quantifiers, and adverbial connectives), mirroring the size of
// the lexicon in Table I of the paper. Grouped 10 per line for countability.
constexpr const char* kFunctionWords[] = {
    "a", "about", "above", "across", "after", "afterwards", "again",
    "against", "all", "almost",
    "alone", "along", "already", "also", "although", "always", "am",
    "among", "amongst", "an",
    "and", "another", "any", "anybody", "anyhow", "anyone", "anything",
    "anyway", "anywhere", "are",
    "around", "as", "at", "back", "be", "became", "because", "become",
    "becomes", "becoming",
    "been", "before", "beforehand", "behind", "being", "below", "beside",
    "besides", "between", "beyond",
    "both", "but", "by", "can", "cannot", "could", "dare", "despite",
    "did", "do",
    "does", "doing", "done", "down", "during", "each", "either", "else",
    "elsewhere", "enough",
    "even", "ever", "every", "everybody", "everyone", "everything",
    "everywhere", "except", "few", "first",
    "for", "former", "formerly", "from", "further", "furthermore", "had",
    "has", "have", "having",
    "he", "hence", "her", "here", "hereabouts", "hereafter", "hereby",
    "herein", "hereinafter", "heretofore",
    "hereunder", "hereupon", "herewith", "hers", "herself", "him",
    "himself", "his", "how", "however",
    "i", "if", "in", "indeed", "inside", "instead", "into", "is", "it",
    "its",
    "itself", "last", "latter", "latterly", "least", "less", "lot",
    "lots", "many", "may",
    "me", "meanwhile", "might", "mine", "more", "moreover", "most",
    "mostly", "much", "must",
    "my", "myself", "namely", "near", "need", "neither", "never",
    "nevertheless", "next", "no",
    "nobody", "none", "noone", "nor", "not", "nothing", "now", "nowhere",
    "of", "off",
    "often", "oftentimes", "on", "once", "one", "only", "onto", "or",
    "other", "others",
    "otherwise", "ought", "our", "ours", "ourselves", "out", "outside",
    "over", "per", "perhaps",
    "rather", "re", "same", "second", "several", "shall", "she",
    "should", "since", "so",
    "some", "somebody", "somehow", "someone", "something", "sometime",
    "sometimes", "somewhat", "somewhere", "still",
    "such", "than", "that", "the", "their", "theirs", "them",
    "themselves", "then", "thence",
    "there", "thereabouts", "thereafter", "thereby", "therefore",
    "therein", "thereof", "thereon", "thereupon", "these",
    "they", "third", "this", "those", "though", "through", "throughout",
    "thru", "thus", "to",
    "together", "too", "top", "toward", "towards", "under", "underneath",
    "unless", "unlike", "until",
    "up", "upon", "upwards", "us", "used", "usually", "via", "was", "we",
    "well",
    "were", "what", "whatever", "when", "whence", "whenever", "where",
    "whereafter", "whereas", "whereby",
    "wherein", "whereupon", "wherever", "whether", "which", "whichever",
    "while", "whilst", "whither", "who",
    "whoever", "whole", "whom", "whose", "why", "will", "with", "within",
    "without", "would",
    "yet", "you", "your", "yours", "yourself", "yourselves", "aboard",
    "abreast", "abroad", "absent",
    "adjacent", "ago", "ahead", "albeit", "alongside", "amid", "amidst",
    "anti", "apart", "astride",
    "atop", "bar", "barring", "beneath", "betwixt", "circa",
    "concerning", "considering", "counting", "cum",
    "excepting", "excluding", "failing", "following", "given", "granted",
    "including", "like", "mid", "midst",
    "notwithstanding", "opposite", "past", "pending", "plus", "minus",
    "regarding", "respecting", "round", "save",
    "unto", "versus", "wanting", "worth", "aside", "whatsoever",
    "wherefore",
};

// 248 common English misspellings (idiosyncratic feature lexicon of Table I).
// Grouped 8 per line for countability.
constexpr const char* kMisspellings[] = {
    "abberation", "abcense", "abondon", "abreviation", "absense",
    "abudance", "acadamy", "accesible",
    "accidant", "accomodate", "accomodation", "accross", "acheive",
    "acheivement", "acknowlege", "acommodate",
    "acomplish", "acquaintence", "adequite", "adherance", "admissability",
    "adolecent", "adress", "adultary",
    "adviseable", "affilliate", "agression", "agressive", "alchohol",
    "alegance", "allegience", "allready",
    "allthough", "alltogether", "alomst", "alot", "alotted", "amatuer",
    "amendmant", "amoung",
    "analize", "anamoly", "ancestory", "anihilation", "aniversary",
    "anomolous", "anwser", "apparant",
    "appearence", "apperance", "aquaintance", "aquire", "aquit",
    "arguement", "assasination", "athiest",
    "attendence", "audiance", "auxillary", "basicly", "becuase",
    "begining", "beleive", "benifit",
    "beseige", "buisness", "calender", "camoflage", "carribean",
    "catagory", "cemetary", "changable",
    "charactor", "cheif", "collegue", "comming", "commitee",
    "comparsion", "competance", "completly",
    "concious", "condem", "congradulate", "concensus", "contraversy",
    "convienient", "cooly", "copywrite",
    "correspondance", "critisism", "curiousity", "decieve", "definately",
    "definitly", "delema", "dependance",
    "desciption", "desparate", "develope", "diffrence", "dilemna",
    "disapear", "disapoint", "disasterous",
    "dicipline", "dissapear", "dissapoint", "docter", "doesnt", "dont",
    "drunkeness", "ecstacy",
    "eigth", "embarass", "embarassment", "enviroment", "equiptment",
    "excede", "excellant", "exerpt",
    "existance", "experiance", "explaination", "extreem", "familar",
    "fasinating", "firey", "flourescent",
    "foriegn", "forseeable", "fourty", "freind", "fufill", "fullfil",
    "futher", "gaurd",
    "gaurantee", "goverment", "gramatically", "grammer", "gratefull",
    "guidence", "harrass", "harrassment",
    "hieght", "hierachy", "humerous", "hygene", "hypocracy",
    "idiosyncracy", "ignorence", "imediately",
    "incidently", "improvment", "inconvienient", "independance",
    "indispensible", "innoculate", "inteligence", "interchangable",
    "interupt", "irrelevent", "irresistable", "jewelery", "jist",
    "knowlege", "lenght", "liason",
    "libary", "lieing", "lightening", "liquify", "livley", "lonelyness",
    "looze", "maintainance",
    "managable", "manuever", "medeval", "memmorandum", "millenium",
    "miniture", "minuscle", "mischevious",
    "mispell", "misterious", "naturaly", "neccessary", "necesary",
    "negligable", "nieghbor", "ninty",
    "noticable", "occassion", "occassionally", "occurance", "occured",
    "ocurrence", "ommision", "oppurtunity",
    "outragous", "overwelm", "paralell", "parliment", "pasttime",
    "percieve", "perseverence", "personel",
    "persue", "phenomenom", "playright", "plesant", "pollitical",
    "posession", "potatoe", "practicle",
    "preceeding", "prefered", "presance", "privelege", "probaly",
    "proffesional", "promiss", "pronounciation",
    "prufe", "publically", "quarentine", "questionaire", "readible",
    "realy", "recieve", "recieved",
    "recomend", "refered", "relevent", "religous", "remeber",
    "repitition", "resistence", "responce",
    "restaraunt", "rythm", "sacrafice", "saftey", "sargent", "scedule",
    "seperate", "succesful",
};

/// A lexicon sorted for its public index order, plus a hash from each
/// entry to that index, built once.
struct Lexicon {
  std::vector<std::string> sorted;
  WordTable index;
};

template <size_t N>
const Lexicon& BuildLexicon(const char* const (&words)[N]) {
  std::vector<std::string> sorted(words, words + N);
  std::sort(sorted.begin(), sorted.end());
  assert(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end() &&
         "lexicon entries must be unique");
  std::vector<std::pair<std::string_view, int>> indexed;
  for (const char* word : words)
    indexed.emplace_back(
        word, static_cast<int>(std::lower_bound(sorted.begin(), sorted.end(),
                                                word) -
                               sorted.begin()));
  return *new Lexicon{std::move(sorted), WordTable(indexed)};
}

template <size_t N>
constexpr size_t LongestEntry(const char* const (&words)[N]) {
  size_t longest = 0;
  for (const char* w : words)
    longest = std::max(longest, std::char_traits<char>::length(w));
  return longest;
}

/// Index of `word`, lowercased into a stack buffer, in `lex`; -1 when it is
/// absent or longer than the longest entry.
template <size_t kLongest>
int LookUp(const Lexicon& lex, std::string_view word) {
  if (word.size() > kLongest) return -1;
  char lower[kLongest];
  for (size_t i = 0; i < word.size(); ++i) lower[i] = LowerAsciiChar(word[i]);
  return lex.index.Find(std::string_view(lower, word.size()));
}

const Lexicon& FunctionWords() {
  static const Lexicon& lex = BuildLexicon(kFunctionWords);
  return lex;
}

const Lexicon& Misspellings() {
  static const Lexicon& lex = BuildLexicon(kMisspellings);
  return lex;
}

}  // namespace

const std::vector<std::string>& FunctionWordLexicon() {
  return FunctionWords().sorted;
}

bool IsFunctionWord(std::string_view word) {
  return FunctionWordIndex(word) >= 0;
}

int FunctionWordIndex(std::string_view word) {
  return LookUp<LongestEntry(kFunctionWords)>(FunctionWords(), word);
}

const std::vector<std::string>& MisspellingLexicon() {
  return Misspellings().sorted;
}

bool IsMisspelling(std::string_view word) { return MisspellingIndex(word) >= 0; }

int MisspellingIndex(std::string_view word) {
  return LookUp<LongestEntry(kMisspellings)>(Misspellings(), word);
}

}  // namespace dehealth
