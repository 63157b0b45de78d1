#include "engines/pipeline.h"

#include <utility>

#include "engines/blind.h"
#include "engines/community.h"
#include "obs/standard_metrics.h"

namespace dehealth {

StatusOr<std::vector<std::vector<double>>> BuildEngineMatrix(
    const UdaGraph& anonymized, const UdaGraph& auxiliary,
    const DeHealthConfig& config) {
  obs::EngineMetrics& metrics = obs::GetEngineMetrics();
  switch (config.engine) {
    case EngineKind::kStructural:
      return Status::InvalidArgument(
          "BuildEngineMatrix: the structural engine scores through "
          "BuildAttackScoreSource's candidate index, not here");
    case EngineKind::kBlind: {
      BlindConfig blind;
      blind.num_threads = config.num_threads;
      StatusOr<std::vector<std::vector<double>>> matrix =
          BuildBlindMatrix(anonymized, auxiliary, blind);
      if (!matrix.ok()) return matrix.status();
      metrics.matrix_builds->Increment();
      metrics.active_engine->Set(static_cast<int64_t>(config.engine));
      return matrix;
    }
    case EngineKind::kCommunity: {
      CommunityEngineConfig community;
      community.seed = config.engine_seed;
      community.similarity = config.similarity;
      community.num_threads = config.num_threads;
      StatusOr<CommunityEngineResult> built =
          BuildCommunityMatrix(anonymized, auxiliary, community);
      if (!built.ok()) return built.status();
      metrics.matrix_builds->Increment();
      metrics.active_engine->Set(static_cast<int64_t>(config.engine));
      return std::move(built->similarity);
    }
  }
  return Status::InvalidArgument("BuildEngineMatrix: unknown engine kind");
}

}  // namespace dehealth
