#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/flag_catalog.h"
#include "core/engine_kind.h"
#include "obs/standard_metrics.h"

// Docs-consistency checks: the in-source catalogs (AllMetricDefs,
// FlagCatalog, the obs::Span sites under src/) are the single source of
// truth, and these tests fail the build-tree whenever docs/METRICS.md,
// docs/OPERATIONS.md or docs/TRACING.md falls behind them.
// DEHEALTH_SOURCE_DIR is injected by tests/CMakeLists.txt.

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

/// The contents of each `quote`-delimited run in `s`, in order.
std::vector<std::string> Quoted(const std::string& s, char quote) {
  std::vector<std::string> runs;
  for (size_t open = s.find(quote); open != std::string::npos;) {
    const size_t close = s.find(quote, open + 1);
    if (close == std::string::npos) break;
    runs.push_back(s.substr(open + 1, close - open - 1));
    open = s.find(quote, close + 1);
  }
  return runs;
}

TEST(DocsTest, EverySpanIsDocumented) {
  // Every `obs::Span <var>("<category>", "<span>")` in src/ must appear in
  // docs/TRACING.md's "Instrumented span inventory" table, and every span
  // the table names must still exist in src/.
  using SpanName = std::pair<std::string, std::string>;
  const std::string site = "obs::Span ";
  std::set<SpanName> in_source;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           std::string(DEHEALTH_SOURCE_DIR) + "/src")) {
    const std::string ext = entry.path().extension().string();
    if (ext != ".cc" && ext != ".h") continue;
    std::ifstream in(entry.path());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    for (size_t at = text.find(site); at != std::string::npos;
         at = text.find(site, at + 1)) {
      // The variable name runs straight into the argument list.
      const size_t open = text.find_first_not_of(
          "abcdefghijklmnopqrstuvwxyz_0123456789", at + site.size());
      if (open == std::string::npos || text[open] != '(') continue;
      const std::vector<std::string> args =
          Quoted(text.substr(open, text.find(')', open) - open), '"');
      if (args.size() == 2) in_source.insert({args[0], args[1]});
    }
  }
  ASSERT_FALSE(in_source.empty());

  const std::string doc = ReadDoc("docs/TRACING.md");
  const size_t table = doc.find("## Instrumented span inventory");
  ASSERT_NE(table, std::string::npos);
  std::istringstream lines(
      doc.substr(table, doc.find("\n## ", table + 1) - table));
  std::set<SpanName> in_doc;
  std::string line;
  while (std::getline(lines, line)) {
    // Rows look like "| core | `refined_da`, `refined_da_for_users` | ...".
    const size_t first = line.find('|');
    const size_t second = line.find('|', first + 1);
    const size_t third = line.find('|', second + 1);
    if (first != 0 || third == std::string::npos) continue;
    std::string category = line.substr(1, second - 1);
    category.erase(0, category.find_first_not_of(' '));
    category.erase(category.find_last_not_of(' ') + 1);
    for (const std::string& span :
         Quoted(line.substr(second + 1, third - second - 1), '`'))
      in_doc.insert({category, span});
  }
  for (const SpanName& span : in_source)
    EXPECT_TRUE(in_doc.count(span))
        << "span " << span.first << "/" << span.second
        << " is not in docs/TRACING.md's span inventory";
  for (const SpanName& span : in_doc)
    EXPECT_TRUE(in_source.count(span))
        << "docs/TRACING.md lists span " << span.first << "/" << span.second
        << " but no obs::Span in src/ records it";
}

/// Every `bench_*` target bench/CMakeLists.txt builds.
std::set<std::string> BenchTargets() {
  const std::string cmake = ReadDoc("bench/CMakeLists.txt");
  std::set<std::string> targets;
  for (const std::string call : {"dehealth_add_bench(", "add_executable("})
    for (size_t at = cmake.find(call); at != std::string::npos;
         at = cmake.find(call, at + 1)) {
      const size_t begin = at + call.size();
      const std::string name =
          cmake.substr(begin, cmake.find_first_of(" )", begin) - begin);
      if (name.rfind("bench_", 0) == 0) targets.insert(name);
    }
  return targets;
}

TEST(DocsTest, EveryBenchAndReportNamedInDocsExists) {
  // The reader-facing docs may name only benches that bench/CMakeLists.txt
  // builds and BENCH_*.json reports that are checked in. ROADMAP.md and
  // CHANGES.md are history, and may name retired ones.
  const std::set<std::string> targets = BenchTargets();
  ASSERT_EQ(targets.count("bench_engines"), 1u);
  const std::string root = DEHEALTH_SOURCE_DIR;
  std::vector<std::string> docs = {"README.md", "EXPERIMENTS.md",
                                   "DESIGN.md",
                                   ".claude/skills/verify/SKILL.md"};
  for (const auto& entry :
       std::filesystem::directory_iterator(root + "/docs"))
    if (entry.path().extension() == ".md")
      docs.push_back("docs/" + entry.path().filename().string());
  const std::string name_chars = "abcdefghijklmnopqrstuvwxyz0123456789_";
  const std::string report_chars =
      name_chars + "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
  const std::string path_chars = report_chars + "./-";
  for (const std::string& doc_path : docs) {
    const std::string doc = ReadDoc(doc_path);
    // "bench/bench_x" (also inside "build/bench/bench_x") and "`bench_x`".
    for (const std::string prefix : {"bench/bench_", "`bench_"})
      for (size_t at = doc.find(prefix); at != std::string::npos;
           at = doc.find(prefix, at + 1)) {
        const size_t begin = at + prefix.size() - 6;  // at "bench_"
        const size_t end =
            doc.find_first_not_of(name_chars, at + prefix.size());
        if (end == at + prefix.size()) continue;  // e.g. `bench_*`
        if (prefix[0] == '`' && (end == std::string::npos || doc[end] != '`'))
          continue;
        const std::string bench = doc.substr(begin, end - begin);
        EXPECT_EQ(targets.count(bench), 1u)
            << doc_path << " names " << bench
            << ", which bench/CMakeLists.txt does not build";
      }
    // "BENCH_x.json", with the directory in front of it.
    for (size_t at = doc.find("BENCH_"); at != std::string::npos;
         at = doc.find("BENCH_", at + 1)) {
      const size_t end = doc.find_first_not_of(report_chars, at + 6);
      if (end == at + 6 || end == std::string::npos ||
          doc.compare(end, 5, ".json") != 0)
        continue;
      const size_t begin = doc.find_last_not_of(path_chars, at) + 1;
      const std::string report = doc.substr(begin, end + 5 - begin);
      EXPECT_TRUE(std::filesystem::exists(root + "/" + report))
          << doc_path << " names " << report << ", which does not exist";
    }
  }
}

TEST(FlagCatalogTest, SortedAndUnique) {
  const std::vector<FlagDoc>& catalog = FlagCatalog();
  ASSERT_FALSE(catalog.empty());
  for (size_t i = 1; i < catalog.size(); ++i)
    EXPECT_LT(std::string(catalog[i - 1].name), std::string(catalog[i].name))
        << "FlagCatalog() must stay sorted by name";
}

TEST(FlagCatalogTest, AttackBooleanFlagsDeriveFromCatalog) {
  // The value-less flags every binary declares must match the catalog's
  // boolean entries; the set is small and load-bearing enough to pin
  // exactly.
  const std::set<std::string> expected = {
      "allow-epoch-skew", "filter",  "idf",
      "ingest",           "no-seal", "require-all-shards"};
  EXPECT_EQ(BooleanFlags(), expected);
}

TEST(FlagCatalogTest, EveryBinariesItemNamesABinary) {
  // RejectUnknownFlags admits a flag in the binaries its items' first
  // words name; an item naming none would admit it nowhere.
  const std::set<std::string> binaries = {"cli", "serve", "router", "query",
                                          "ingest"};
  for (const FlagDoc& flag : FlagCatalog()) {
    std::istringstream items(flag.binaries);
    std::string item;
    while (std::getline(items, item, ',')) {
      std::istringstream words(item);
      std::string first;
      words >> first;
      EXPECT_TRUE(binaries.count(first))
          << "--" << flag.name << ": item '" << item << "'";
    }
  }
}

TEST(FlagCatalogTest, EveryEntryHasHelpAndBinaries) {
  for (const FlagDoc& flag : FlagCatalog()) {
    EXPECT_NE(std::string(flag.help), "") << "--" << flag.name;
    EXPECT_NE(std::string(flag.binaries), "") << "--" << flag.name;
  }
}

}  // namespace
}  // namespace dehealth
