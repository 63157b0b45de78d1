#include "datagen/style_profile.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cmath>

#include "common/math_utils.h"
#include "text/lexicon.h"

namespace dehealth {

namespace {

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Global pseudo-frequency rank of function word `i`: a fixed permutation of
/// the (alphabetical) lexicon so that base emission weights look Zipfian in
/// a word-independent order shared by all users.
double FunctionWordBaseWeight(size_t i, size_t lexicon_size) {
  const uint64_t rank = Mix64(0x5eedf00dULL + i) % lexicon_size;
  return 1.0 / (3.0 + static_cast<double>(rank));
}

double JitterPositive(double base, double rel_sd, double diversity,
                      Rng& rng, double lo, double hi) {
  const double jittered =
      base * std::exp(rng.NextGaussian(0.0, rel_sd * diversity));
  return Clamp(jittered, lo, hi);
}

const std::vector<std::string>& Contractions() {
  static const auto& c = *new std::vector<std::string>{
      "don't", "it's",  "i'm",    "can't",  "didn't",
      "that's", "i've", "isn't",  "won't",  "she's",
  };
  return c;
}

}  // namespace

StyleProfile SampleStyleProfile(const StylePopulationConfig& config,
                                Rng& rng) {
  const double div = config.profile_diversity;
  StyleProfile p;
  p.vocab_permutation_seed = rng.NextUint64();
  p.vocab_zipf_exponent = JitterPositive(1.1, 0.15, div, rng, 0.8, 1.6);
  p.vocab_active_size = static_cast<int>(
      JitterPositive(800.0, 0.3, div, rng, 100.0,
                     static_cast<double>(config.vocabulary_size)));
  p.vocab_personalization =
      Clamp(config.vocab_personalization, 0.0, 1.0);
  p.topic_word_rate = Clamp(config.topic_word_rate, 0.0, 1.0);

  p.function_word_rate = JitterPositive(0.45, 0.1, div, rng, 0.25, 0.6);
  const auto& lexicon = FunctionWordLexicon();
  p.function_word_weights.resize(lexicon.size());
  for (size_t i = 0; i < lexicon.size(); ++i) {
    const double base = FunctionWordBaseWeight(i, lexicon.size());
    p.function_word_weights[i] =
        base * std::exp(rng.NextGaussian(0.0, 0.5 * div));
  }

  p.misspelling_rate = JitterPositive(0.012, 0.8, div, rng, 0.0, 0.08);
  const int num_habitual = static_cast<int>(rng.NextInt(3, 10));
  const auto habitual = rng.SampleWithoutReplacement(
      MisspellingLexicon().size(), static_cast<size_t>(num_habitual));
  p.habitual_misspellings.assign(habitual.begin(), habitual.end());
  std::sort(p.habitual_misspellings.begin(), p.habitual_misspellings.end());

  p.mean_sentence_words = JitterPositive(15.0, 0.25, div, rng, 6.0, 30.0);
  p.sd_sentence_words = JitterPositive(5.0, 0.3, div, rng, 1.0, 12.0);
  p.mean_post_words =
      JitterPositive(config.mean_post_words, 0.35, div, rng, 20.0, 600.0);
  p.sd_post_log = JitterPositive(0.6, 0.2, div, rng, 0.2, 1.0);
  p.paragraph_break_prob = JitterPositive(0.12, 0.5, div, rng, 0.0, 0.5);

  p.comma_rate = JitterPositive(0.06, 0.5, div, rng, 0.0, 0.2);
  p.exclamation_prob = JitterPositive(0.1, 0.8, div, rng, 0.0, 0.5);
  p.question_prob = JitterPositive(0.12, 0.6, div, rng, 0.0, 0.5);
  p.ellipsis_prob = JitterPositive(0.02, 1.0, div, rng, 0.0, 0.3);
  p.sentence_cap_prob = JitterPositive(0.9, 0.15, div, rng, 0.1, 1.0);
  p.lowercase_i_prob = JitterPositive(0.2, 1.0, div, rng, 0.0, 1.0);
  p.allcaps_word_prob = JitterPositive(0.01, 1.0, div, rng, 0.0, 0.08);
  p.apostrophe_contraction_rate =
      JitterPositive(0.05, 0.6, div, rng, 0.0, 0.2);
  p.digit_rate = JitterPositive(0.015, 0.8, div, rng, 0.0, 0.08);
  p.parenthesis_prob = JitterPositive(0.04, 1.0, div, rng, 0.0, 0.25);
  p.special_char_rate = JitterPositive(0.004, 1.2, div, rng, 0.0, 0.03);
  p.brand_word_prob = JitterPositive(0.008, 1.0, div, rng, 0.0, 0.05);
  return p;
}

namespace {

/// Draws one content word for this user: Zipf rank through the user's
/// hash-permutation of the vocabulary.
const std::string& DrawContentWord(const StyleProfile& p,
                                   const Vocabulary& vocab,
                                   const ZipfSampler& zipf, Rng& rng) {
  const int rank = zipf.Sample(rng);
  if (!rng.NextBool(p.vocab_personalization)) {
    // Population-shared ranking: rank maps straight to the vocabulary.
    return vocab.word((rank - 1) % vocab.size());
  }
  const uint64_t idx =
      Mix64(p.vocab_permutation_seed ^ static_cast<uint64_t>(rank)) %
      static_cast<uint64_t>(vocab.size());
  return vocab.word(static_cast<int>(idx));
}

std::string Capitalize(std::string word) {
  if (!word.empty())
    word[0] = static_cast<char>(
        std::toupper(static_cast<unsigned char>(word[0])));
  return word;
}

std::string ToAllUpper(std::string word) {
  for (char& c : word)
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return word;
}

std::string MakeBrandWord(std::string word) {
  word = Capitalize(std::move(word));
  if (word.size() >= 4) {
    const size_t mid = word.size() / 2;
    word[mid] = static_cast<char>(
        std::toupper(static_cast<unsigned char>(word[mid])));
  }
  return word;
}

}  // namespace

std::string GeneratePost(const StyleProfile& profile,
                         const Vocabulary& vocabulary, Rng& rng,
                         int target_words, uint64_t topic_seed) {
  assert(vocabulary.size() > 0);
  const int active =
      std::min(profile.vocab_active_size, vocabulary.size());
  const ZipfSampler zipf(std::max(1, active), profile.vocab_zipf_exponent);

  int total_words = target_words;
  if (total_words <= 0) {
    const double ln_mean = std::log(profile.mean_post_words);
    total_words = static_cast<int>(std::round(std::exp(
        rng.NextGaussian(ln_mean - 0.5 * profile.sd_post_log *
                                       profile.sd_post_log,
                         profile.sd_post_log))));
    total_words = std::max(3, std::min(total_words, 1200));
  }

  const auto& function_words = FunctionWordLexicon();
  const auto& misspellings = MisspellingLexicon();

  std::string post;
  int emitted = 0;
  while (emitted < total_words) {
    int sentence_len = static_cast<int>(std::round(rng.NextGaussian(
        profile.mean_sentence_words, profile.sd_sentence_words)));
    sentence_len = std::max(3, std::min(sentence_len, 60));
    sentence_len = std::min(sentence_len, total_words - emitted + 2);

    std::string sentence;
    for (int w = 0; w < sentence_len; ++w) {
      std::string word;
      if (rng.NextBool(profile.apostrophe_contraction_rate)) {
        const auto& c = Contractions();
        word = c[rng.NextBounded(c.size())];
      } else if (rng.NextBool(profile.misspelling_rate) &&
                 !profile.habitual_misspellings.empty()) {
        word = misspellings[static_cast<size_t>(
            profile.habitual_misspellings[rng.NextBounded(
                profile.habitual_misspellings.size())])];
      } else if (rng.NextBool(profile.function_word_rate)) {
        word = function_words[rng.NextCategorical(
            profile.function_word_weights)];
      } else if (rng.NextBool(profile.digit_rate /
                              std::max(1e-9, 1.0 -
                                                 profile.function_word_rate))) {
        const int digits = static_cast<int>(rng.NextInt(1, 4));
        for (int d = 0; d < digits; ++d)
          word += static_cast<char>('0' + rng.NextBounded(10));
      } else if (topic_seed != 0 && rng.NextBool(profile.topic_word_rate)) {
        // Topic word shared by every participant of the thread.
        const int rank = zipf.Sample(rng);
        const uint64_t idx =
            Mix64(topic_seed ^ static_cast<uint64_t>(rank)) %
            static_cast<uint64_t>(vocabulary.size());
        word = vocabulary.word(static_cast<int>(idx));
      } else if (rng.NextBool(profile.brand_word_prob)) {
        word = MakeBrandWord(
            DrawContentWord(profile, vocabulary, zipf, rng));
      } else {
        word = DrawContentWord(profile, vocabulary, zipf, rng);
      }

      // Case habits.
      if (word == "i") {
        if (!rng.NextBool(profile.lowercase_i_prob)) word.assign(1, 'I');
      } else if (rng.NextBool(profile.allcaps_word_prob)) {
        word = ToAllUpper(word);
      }
      if (w == 0 && rng.NextBool(profile.sentence_cap_prob))
        word = Capitalize(std::move(word));

      if (!sentence.empty()) {
        if (rng.NextBool(profile.comma_rate)) sentence += ',';
        sentence += ' ';
        if (rng.NextBool(profile.special_char_rate)) {
          static constexpr char kSpecials[] = "/-+*&%=";
          sentence += kSpecials[rng.NextBounded(sizeof(kSpecials) - 1)];
          sentence += ' ';
        }
      }
      sentence += word;
      ++emitted;
    }

    if (rng.NextBool(profile.parenthesis_prob)) {
      sentence += " (";
      sentence += DrawContentWord(profile, vocabulary, zipf, rng);
      sentence += ")";
      ++emitted;
    }

    // Terminator.
    if (rng.NextBool(profile.ellipsis_prob)) {
      sentence += "...";
    } else if (rng.NextBool(profile.exclamation_prob)) {
      sentence += '!';
    } else if (rng.NextBool(profile.question_prob)) {
      sentence += '?';
    } else {
      sentence += '.';
    }

    if (!post.empty()) {
      post += rng.NextBool(profile.paragraph_break_prob) ? "\n\n" : " ";
    }
    post += sentence;
  }
  return post;
}

}  // namespace dehealth
