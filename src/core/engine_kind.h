#ifndef DEHEALTH_CORE_ENGINE_KIND_H_
#define DEHEALTH_CORE_ENGINE_KIND_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace dehealth {

/// Which phase-1 attack engine produces the per-pair scores behind
/// CandidateSource (--engine). The enum lives in core (next to
/// DeHealthConfig) so selecting an engine never drags the engine
/// implementations (src/engines/) into layers that only need the name.
///
/// Every engine honors the same contract, spelled out in docs/ENGINES.md:
/// deterministic given the config, bitwise-identical results for any
/// thread count, and unchanged under checkpoint resume.
enum class EngineKind {
  /// The paper's structural-similarity attack (degree + landmark distance
  /// + stylometric attributes through the PR-6 kernel) — the default, and
  /// the only engine with a persistent candidate index.
  kStructural = 0,
  /// Seed-free blind DA (Lee et al., PAPERS.md): degree/neighborhood-
  /// distribution distance refined by iterative similarity propagation.
  /// Uses no auxiliary-side text at all.
  kBlind = 1,
  /// Community-aware DA (Onaran et al., PAPERS.md): label-propagation
  /// communities on both graphs are matched first; the PR-6 structural
  /// kernel scores candidates, damped across unmatched communities.
  kCommunity = 2,
};

/// Canonical spelling of an engine ("structural", "blind", "community") —
/// what --engine accepts and what docs/ENGINES.md documents.
const char* EngineKindName(EngineKind kind);

/// Parses an --engine value. InvalidArgument (listing the valid
/// spellings) on anything else.
StatusOr<EngineKind> ParseEngineKind(const std::string& name);

/// All engines, in enum order — the sweep set of the conformance suite,
/// `dehealth_cli evaluate`, and bench_engines.
const std::vector<EngineKind>& AllEngineKinds();

}  // namespace dehealth

#endif  // DEHEALTH_CORE_ENGINE_KIND_H_
