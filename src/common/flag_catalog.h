#ifndef DEHEALTH_COMMON_FLAG_CATALOG_H_
#define DEHEALTH_COMMON_FLAG_CATALOG_H_

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.h"
#include "common/status.h"

namespace dehealth {

/// One command-line flag a shipped binary accepts. The catalog is the
/// single source of truth for the flag surface: BooleanFlags() is
/// derived from it, docs/OPERATIONS.md documents exactly this set, and two
/// checks hold the three in sync — the docs-consistency unit test
/// (catalog ⊆ OPERATIONS.md) and tests/docs/docs_check.cmake (every
/// FlagParser lookup in the binaries ⊆ OPERATIONS.md). Add a flag => add
/// it here AND to the table in docs/OPERATIONS.md.
struct FlagDoc {
  /// Name without the leading "--", e.g. "job-dir".
  const char* name;
  /// Where it applies, e.g. "cli attack, serve" or "query": comma-separated
  /// items whose first word names the binary (cli, serve, router, query or
  /// ingest), optionally followed by the subcommands.
  const char* binaries;
  /// True for value-less switches ("--idf"); FlagParser needs these
  /// declared up front to parse "--idf --k 10" correctly.
  bool boolean;
  /// One-line meaning for the docs table.
  const char* help;
};

/// Every flag accepted by dehealth_cli, dehealth_serve, dehealth_router,
/// dehealth_query and dehealth_ingest, sorted by name.
const std::vector<FlagDoc>& FlagCatalog();

/// InvalidArgument ("unknown flag --name ...") for the first `--name` on
/// the command line that FlagCatalog() does not list for `binary` (the
/// running binary's word in the binaries column: "cli", "serve",
/// "router", "query" or "ingest"); otherwise flags.status(), the parser's
/// own verdict on a malformed command line. All five binaries call it
/// before reading their flags, so a misspelled or retired flag, another
/// binary's flag, a missing value or a stray token exits 1 instead of
/// silently doing nothing.
Status RejectUnknownFlags(const FlagParser& flags, std::string_view binary);

/// The value-less flags of the whole catalog, what all five binaries pass
/// to FlagParser so "--idf --k 10" parses correctly and another binary's
/// switch is rejected by its name rather than read as taking a value.
std::set<std::string> BooleanFlags();

}  // namespace dehealth

#endif  // DEHEALTH_COMMON_FLAG_CATALOG_H_
