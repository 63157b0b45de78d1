#ifndef DEHEALTH_COMMON_FLAGS_H_
#define DEHEALTH_COMMON_FLAGS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"

namespace dehealth {

/// Minimal "--flag value" command-line parser shared by the five binaries;
/// flags may appear in any order. Flags listed in `boolean_flags` take no
/// value ("--idf"). The parser fails closed: a flag whose value is missing,
/// empty or another "--flag", a flag given twice, and a token that is
/// neither a flag nor a flag's value make status() an InvalidArgument.
/// Numeric lookups parse strictly: trailing garbage or overflow fail with
/// InvalidArgument instead of silently becoming 0 (atoi-style).
class FlagParser {
 public:
  /// Parses argv[first..argc).
  FlagParser(int argc, char** argv, int first,
             std::set<std::string> boolean_flags = {});

  /// OK, or the first malformed flag or token on the command line:
  /// "--seed expects a value", "unexpected argument '5'" or
  /// "--k given twice". RejectUnknownFlags returns it.
  const Status& status() const { return status_; }

  /// Value of "--key", or `fallback` when absent.
  std::string Get(const std::string& key,
                  const std::string& fallback = "") const;

  /// Strictly parsed integer value of "--key"; `fallback` when absent.
  StatusOr<int> GetInt(const std::string& key, int fallback) const;

  /// Strictly parsed floating-point value of "--key"; `fallback` when
  /// absent.
  StatusOr<double> GetDouble(const std::string& key, double fallback) const;

  /// True when the boolean flag "--flag" was passed.
  bool Has(const std::string& flag) const;

  /// Every "--name" on the command line, without the dashes, in order.
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> flags_;
  std::vector<std::string> names_;
  Status status_;
};

}  // namespace dehealth

#endif  // DEHEALTH_COMMON_FLAGS_H_
