#include "text/word_table.h"

#include <algorithm>

namespace dehealth {

WordTable::WordTable(
    const std::vector<std::pair<std::string_view, int>>& words) {
  // At most a quarter full, so a miss usually ends at the first slot.
  size_t size = 1;
  while (size < 4 * words.size()) size *= 2;
  slots_.resize(size);
  mask_ = size - 1;
  for (const auto& [word, value] : words) {
    size_t i = Hash(word) & mask_;
    while (slots_[i].value >= 0 && slots_[i].word != word) i = (i + 1) & mask_;
    if (slots_[i].value >= 0) continue;
    slots_[i] = {word, value};
    longest_ = std::max(longest_, word.size());
  }
}

}  // namespace dehealth
