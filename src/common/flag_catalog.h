#ifndef DEHEALTH_COMMON_FLAG_CATALOG_H_
#define DEHEALTH_COMMON_FLAG_CATALOG_H_

#include <set>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/status.h"

namespace dehealth {

/// One command-line flag a shipped binary accepts. The catalog is the
/// single source of truth for the flag surface: AttackBooleanFlags() is
/// derived from it, docs/OPERATIONS.md documents exactly this set, and two
/// checks hold the three in sync — the docs-consistency unit test
/// (catalog ⊆ OPERATIONS.md) and tests/docs/docs_check.cmake (every
/// FlagParser lookup in the binaries ⊆ OPERATIONS.md). Add a flag => add
/// it here AND to the table in docs/OPERATIONS.md.
struct FlagDoc {
  /// Name without the leading "--", e.g. "job-dir".
  const char* name;
  /// Where it applies, e.g. "cli attack, serve" or "query".
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
/// the command line that FlagCatalog() does not list; otherwise
/// flags.status(), the parser's own verdict on a malformed command line.
/// All five binaries call it before reading their flags, so a misspelled
/// or retired flag, a missing value or a stray token exits 1 instead of
/// silently doing nothing.
Status RejectUnknownFlags(const FlagParser& flags);

/// The value-less flags of the catalog, what dehealth_cli, dehealth_serve
/// and dehealth_router pass to FlagParser so "--idf --k 10" parses
/// correctly. (Declaring a boolean another binary owns — e.g. the
/// router's --require-all-shards — is harmless: undeclared-but-unused
/// flags are simply never looked up.)
std::set<std::string> AttackBooleanFlags();

}  // namespace dehealth

#endif  // DEHEALTH_COMMON_FLAG_CATALOG_H_
