#ifndef DEHEALTH_ENGINES_PIPELINE_H_
#define DEHEALTH_ENGINES_PIPELINE_H_

#include <vector>

#include "core/de_health.h"
#include "core/uda_graph.h"

namespace dehealth {

/// Builds the |Δ1|×|Δ2| score matrix of a non-structural engine
/// (config.engine == kBlind or kCommunity), honoring config.num_threads,
/// config.engine_seed and — for the community engine's within-community
/// scorer — config.similarity (idf/simd/weights). InvalidArgument for
/// kStructural: that engine scores through the candidate index, which
/// BuildAttackScoreSource (src/index/pipeline.h) builds; it calls here for
/// the others.
///
/// Deterministic and bitwise thread-invariant, like every matrix in the
/// pipeline (docs/ENGINES.md spells out the contract). Also updates the
/// per-engine metrics (dehealth_engine_*).
StatusOr<std::vector<std::vector<double>>> BuildEngineMatrix(
    const UdaGraph& anonymized, const UdaGraph& auxiliary,
    const DeHealthConfig& config);

}  // namespace dehealth

#endif  // DEHEALTH_ENGINES_PIPELINE_H_
