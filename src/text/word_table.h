#ifndef DEHEALTH_TEXT_WORD_TABLE_H_
#define DEHEALTH_TEXT_WORD_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace dehealth {

/// A fixed set of words, each mapped to a non-negative integer, read
/// without allocating: open addressing over a power-of-two table keyed by
/// FNV-1a of the word's bytes. The words' storage must outlive the table.
/// Lookups are exact byte matches; callers fold case first.
class WordTable {
 public:
  /// On a repeated word the first value wins.
  explicit WordTable(
      const std::vector<std::pair<std::string_view, int>>& words);

  /// The value of `word`, or -1 when it is absent.
  int Find(std::string_view word) const {
    if (word.size() > longest_) return -1;
    for (size_t i = Hash(word) & mask_;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.value < 0 || Equal(slot.word, word)) return slot.value;
    }
  }

 private:
  struct Slot {
    std::string_view word;
    int value = -1;
  };

  // Words are short: a byte loop beats a call to memcmp.
  static bool Equal(std::string_view a, std::string_view b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i)
      if (a[i] != b[i]) return false;
    return true;
  }

  static uint64_t Hash(std::string_view word) {
    uint64_t h = 14695981039346656037ull;
    for (const char c : word) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    return h;
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t longest_ = 0;
};

}  // namespace dehealth

#endif  // DEHEALTH_TEXT_WORD_TABLE_H_
