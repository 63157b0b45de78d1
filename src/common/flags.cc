#include "common/flags.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <utility>

namespace dehealth {

namespace {

bool IsFlag(const std::string& token) { return token.rfind("--", 0) == 0; }

}  // namespace

FlagParser::FlagParser(int argc, char** argv, int first,
                       std::set<std::string> boolean_flags) {
  // The first error is the one reported; the rest may be its fallout.
  auto fail = [this](std::string message) {
    if (status_.ok()) status_ = Status::InvalidArgument(std::move(message));
  };
  for (int i = first; i < argc; ++i) {
    const std::string token = argv[i];
    if (!IsFlag(token)) {
      fail("unexpected argument '" + token + "'");
      continue;
    }
    const std::string name = token.substr(2);
    if (std::find(names_.begin(), names_.end(), name) != names_.end())
      fail(token + " given twice");
    names_.push_back(name);
    if (boolean_flags.count(name) > 0) {  // boolean: no value
      flags_.insert(name);
      continue;
    }
    if (i + 1 == argc || IsFlag(argv[i + 1])) {
      fail(token + " expects a value");
      continue;
    }
    const std::string value = argv[++i];
    if (value.empty()) fail(token + " expects a value");
    values_[name] = value;
  }
}

std::string FlagParser::Get(const std::string& key,
                            const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

StatusOr<int> FlagParser::GetInt(const std::string& key, int fallback) const {
  const std::string v = Get(key);
  if (v.empty()) return fallback;
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || errno != 0 || value < INT_MIN ||
      value > INT_MAX)
    return Status::InvalidArgument("--" + key + " expects an integer, got '" +
                                   v + "'");
  return static_cast<int>(value);
}

StatusOr<double> FlagParser::GetDouble(const std::string& key,
                                       double fallback) const {
  const std::string v = Get(key);
  if (v.empty()) return fallback;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0' || errno != 0)
    return Status::InvalidArgument("--" + key + " expects a number, got '" +
                                   v + "'");
  return value;
}

bool FlagParser::Has(const std::string& flag) const {
  return flags_.count(flag) > 0;
}

}  // namespace dehealth
