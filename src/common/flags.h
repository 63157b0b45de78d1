#ifndef DEHEALTH_COMMON_FLAGS_H_
#define DEHEALTH_COMMON_FLAGS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"

namespace dehealth {

/// Minimal "--flag value" command-line parser shared by the CLI binaries
/// (dehealth_cli, dehealth_serve, dehealth_query); flags may appear in any
/// order. Numeric lookups parse strictly: trailing garbage, overflow, or an
/// empty value fail with InvalidArgument instead of silently becoming 0
/// (atoi-style). Flags listed in `boolean_flags` take no value ("--idf").
class FlagParser {
 public:
  FlagParser(int argc, char** argv, int first,
             std::set<std::string> boolean_flags = {});

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
};

}  // namespace dehealth

#endif  // DEHEALTH_COMMON_FLAGS_H_
