#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "common/flag_catalog.h"
#include "core/engine_kind.h"
#include "obs/standard_metrics.h"

// Docs-consistency checks: the in-source catalogs (AllMetricDefs,
// FlagCatalog) are the single source of truth, and these tests fail the
// build-tree whenever docs/METRICS.md or docs/OPERATIONS.md falls behind
// them. DEHEALTH_SOURCE_DIR is injected by tests/CMakeLists.txt.

#ifndef DEHEALTH_SOURCE_DIR
#error "DEHEALTH_SOURCE_DIR must be defined to locate docs/"
#endif

namespace dehealth {
namespace {

std::string ReadDoc(const std::string& relative_path) {
  const std::string path = std::string(DEHEALTH_SOURCE_DIR) + "/" +
                           relative_path;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing doc: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(DocsTest, EveryMetricIsDocumented) {
  const std::string doc = ReadDoc("docs/METRICS.md");
  ASSERT_FALSE(doc.empty());
  for (const obs::MetricDef* def : obs::AllMetricDefs())
    EXPECT_NE(doc.find(def->name), std::string::npos)
        << "metric `" << def->name
        << "` is not documented in docs/METRICS.md";
}

TEST(DocsTest, EveryFlagIsDocumented) {
  const std::string doc = ReadDoc("docs/OPERATIONS.md");
  ASSERT_FALSE(doc.empty());
  for (const FlagDoc& flag : FlagCatalog())
    EXPECT_NE(doc.find("--" + std::string(flag.name)), std::string::npos)
        << "flag `--" << flag.name
        << "` is not documented in docs/OPERATIONS.md";
}

TEST(DocsTest, EveryDocumentedFlagIsStillRegistered) {
  // The reverse direction of EveryFlagIsDocumented: a flag named in the
  // first cell of an OPERATIONS.md table row must still exist in the
  // FlagCatalog, so removing a flag from a binary forces its runbook row
  // out too (stale rows teach operators flags that no longer parse).
  // Flags mentioned in description cells are cross-references, not
  // definitions, and are not checked.
  std::set<std::string> registered;
  for (const FlagDoc& flag : FlagCatalog())
    registered.insert(flag.name);
  const std::string doc = ReadDoc("docs/OPERATIONS.md");
  std::istringstream lines(doc);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("| `--", 0) != 0) continue;
    const size_t cell_end = line.find('|', 1);
    const std::string cell = line.substr(0, cell_end);
    // Every `--name` token in the defining cell (rows like
    // "| `--shard-index` / `--shard-count` |" define two flags).
    size_t pos = 0;
    while ((pos = cell.find("`--", pos)) != std::string::npos) {
      pos += 3;
      size_t end = pos;
      while (end < cell.size() &&
             (std::isalnum(static_cast<unsigned char>(cell[end])) ||
              cell[end] == '-'))
        ++end;
      const std::string name = cell.substr(pos, end - pos);
      EXPECT_TRUE(registered.count(name))
          << "docs/OPERATIONS.md documents `--" << name
          << "` but no binary registers it in FlagCatalog() — delete the "
             "row or restore the flag";
      pos = end;
    }
  }
}

TEST(DocsTest, EngineDocCoversEveryEngineAndItsFlags) {
  // docs/ENGINES.md is the contract document for the pluggable engines:
  // it must name every EngineKind, the selection and evaluation flags,
  // and the CandidateSource interface it documents.
  const std::string doc = ReadDoc("docs/ENGINES.md");
  ASSERT_FALSE(doc.empty());
  for (const EngineKind kind : AllEngineKinds()) {
    std::string quoted = "`";
    quoted.append(EngineKindName(kind)).append("`");
    EXPECT_NE(doc.find(quoted), std::string::npos)
        << "engine " << quoted << " is not documented in docs/ENGINES.md";
  }
  for (const char* required :
       {"--engine", "--engines", "--ks", "CandidateSource",
        "BuildAttackScoreSource", "engine_seed"})
    EXPECT_NE(doc.find(required), std::string::npos)
        << "docs/ENGINES.md no longer mentions " << required;
}

TEST(FlagCatalogTest, SortedAndUnique) {
  const std::vector<FlagDoc>& catalog = FlagCatalog();
  ASSERT_FALSE(catalog.empty());
  for (size_t i = 1; i < catalog.size(); ++i)
    EXPECT_LT(std::string(catalog[i - 1].name), std::string(catalog[i].name))
        << "FlagCatalog() must stay sorted by name";
}

TEST(FlagCatalogTest, AttackBooleanFlagsDeriveFromCatalog) {
  // ParseAttackFlags' value-less flags must match the catalog's boolean
  // entries; the set is small and load-bearing enough to pin exactly.
  const std::set<std::string> expected = {
      "allow-epoch-skew", "filter",  "idf",
      "index",            "ingest",  "no-seal",
      "require-all-shards"};
  EXPECT_EQ(AttackBooleanFlags(), expected);
}

TEST(FlagCatalogTest, EveryEntryHasHelpAndBinaries) {
  for (const FlagDoc& flag : FlagCatalog()) {
    EXPECT_NE(std::string(flag.help), "") << "--" << flag.name;
    EXPECT_NE(std::string(flag.binaries), "") << "--" << flag.name;
  }
}

}  // namespace
}  // namespace dehealth
