#ifndef DEHEALTH_COMMON_STRING_UTILS_H_
#define DEHEALTH_COMMON_STRING_UTILS_H_

#include <string>
#include <string_view>
#include <vector>

namespace dehealth {

/// Splits `s` on any character in `delims`, dropping empty pieces.
std::vector<std::string> SplitString(std::string_view s,
                                     std::string_view delims);

/// ASCII lowercase copy.
std::string ToLowerAscii(std::string_view s);

/// Byte classes as <cctype> answers them in the "C" locale, which the
/// library never changes, inline so that per-byte text passes make no libc
/// call. Bytes >= 0x80 are in no class.
inline bool IsAsciiUpper(char c) { return c >= 'A' && c <= 'Z'; }
inline bool IsAsciiLower(char c) { return c >= 'a' && c <= 'z'; }
inline bool IsAsciiLetter(char c) { return IsAsciiUpper(c) || IsAsciiLower(c); }
inline bool IsAsciiDigit(char c) { return c >= '0' && c <= '9'; }
inline bool IsAsciiSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}
inline char LowerAsciiChar(char c) {
  return IsAsciiUpper(c) ? static_cast<char>(c - 'A' + 'a') : c;
}

/// True if every character is an ASCII letter (and s non-empty).
bool IsAlphaAscii(std::string_view s);

/// True if every character is an ASCII digit (and s non-empty).
bool IsDigitAscii(std::string_view s);

/// Removes leading/trailing ASCII whitespace.
std::string_view TrimAscii(std::string_view s);

/// Joins pieces with a separator.
std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view sep);

/// True if `s` starts with `prefix` / ends with `suffix`. EndsWith is
/// inline: the POS tagger's suffix rules call it for every word.
bool StartsWith(std::string_view s, std::string_view prefix);
inline bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace dehealth

#endif  // DEHEALTH_COMMON_STRING_UTILS_H_
