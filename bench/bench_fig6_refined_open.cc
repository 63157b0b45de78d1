// Reproduces Fig. 6: open-world refined-DA accuracy (a) and false-positive
// rate (b). 100 users x 40 posts per side; overlap ratios 50/70/90%;
// learners KNN and SMO; De-Health K ∈ {5,10,15,20} with mean-verification
// vs. the Stylometry baseline.
//
// Paper anchors: De-Health beats Stylometry on both accuracy (e.g.
// 50%-SMO: 68% vs 10%) and FP rate (4% vs 52%); smaller K tends to win on
// accuracy; SMO usually beats KNN.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "common/string_utils.h"
#include "core/de_health.h"
#include "core/evaluation.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"

namespace {

using namespace dehealth;

RefinedDaConfig MakeRefinedConfig(LearnerKind learner, bool verify) {
  RefinedDaConfig config;
  config.learner = learner;
  config.knn_k = 3;
  // Weka-era pipeline: per-post instances, majority vote across the
  // user's posts (see EXPERIMENTS.md on the Fig. 4/6 regime).
  config.aggregation = RefinedDaConfig::PostAggregation::kMajorityVote;
  config.svm.max_iterations = 40;  // the 100-class shared baseline dominates runtime
  if (verify) {
    config.verification = VerificationScheme::kMeanVerification;
    config.mean_verification_r = 0.05;  // calibrated; see EXPERIMENTS.md
  }
  return config;
}

void Reproduce() {
  bench::Banner("Fig. 6",
                "open-world refined DA: accuracy / FP rate "
                "(100 users x 40 posts)");
  bench::PrintThreadsInfo(0);
  std::printf("%-24s%10s%10s%10s%10s%10s\n", "accuracy|FP", "Stylo",
              "K=5", "K=10", "K=15", "K=20");

  // Panel of 200 forty-post users sampled from a large forum in the
  // scarce-signal configuration (cf. bench_fig4 and EXPERIMENTS.md).
  ForumConfig forum_config = WebMdLikeConfig(2400, 71);
  forum_config.post_count_exponent = 1.3;
  forum_config.style.profile_diversity = 0.35;
  forum_config.style.vocab_personalization = 0.15;
  forum_config.style.topic_word_rate = 0.45;
  auto big_forum = GenerateForum(forum_config);
  if (!big_forum.ok()) return;
  auto panel = SampleUserPanel(big_forum->dataset, 200, 40, 5);
  if (!panel.ok()) {
    std::fprintf(stderr, "panel sampling failed: %s\n",
                 panel.status().ToString().c_str());
    return;
  }

  for (double overlap : {0.5, 0.7, 0.9}) {
    // 200 total users -> both sides get 100 users at every ratio.
    auto scenario = MakeOpenWorldScenario(*panel, overlap, 19);
    if (!scenario.ok()) continue;
    const UdaGraph anon = BuildUdaGraph(scenario->anonymized);
    const UdaGraph aux = BuildUdaGraph(scenario->auxiliary);
    SimilarityConfig sim_config;
    sim_config.num_landmarks = 5;
    sim_config.idf_weight_attributes = true;
  sim_config.idf_weight_attributes = true;
    const StructuralSimilarity sim(anon, aux, sim_config);
    const auto matrix = sim.ComputeMatrix();

    for (LearnerKind learner : {LearnerKind::kKnn, LearnerKind::kSmoSvm}) {
      const RefinedDaConfig refined =
          MakeRefinedConfig(learner, /*verify=*/true);
      auto baseline = RunStylometryBaseline(
          anon, aux, matrix, MakeRefinedConfig(learner, /*verify=*/true));
      OpenWorldCounts baseline_counts;
      if (baseline.ok())
        baseline_counts = EvaluateRefinedDa(*baseline, scenario->truth);

      std::string row = StrFormat(
          "%d%%-%s %17.2f|%-4.2f", static_cast<int>(overlap * 100),
          LearnerKindName(learner), baseline_counts.Accuracy(),
          baseline_counts.FalsePositiveRate());
      for (int k : {5, 10, 15, 20}) {
        auto candidates = SelectTopKCandidates(matrix, k);
        if (!candidates.ok()) continue;
        auto result = RunRefinedDa(anon, aux, *candidates, nullptr,
                                   DenseCandidateSource(matrix), refined);
        OpenWorldCounts counts;
        if (result.ok())
          counts = EvaluateRefinedDa(*result, scenario->truth);
        row += StrFormat("%5.2f|%-4.2f", counts.Accuracy(),
                         counts.FalsePositiveRate());
      }
      std::printf("%s\n", row.c_str());
    }
  }
  std::printf(
      "\nexpected shape: De-Health accuracy >> Stylometry accuracy and "
      "De-Health FP << Stylometry FP\n(paper 50%%-SMO: 0.68|0.04 vs "
      "Stylometry 0.10|0.52).\n");
}

// Arg: num_threads.
void BM_MeanVerification(benchmark::State& state) {
  ForumConfig forum_config = WebMdLikeConfig(80, 73);
  forum_config.min_posts_per_user = 10;
  auto forum = GenerateForum(forum_config);
  auto scenario = MakeOpenWorldScenario(forum->dataset, 0.5, 3);
  const UdaGraph anon = BuildUdaGraph(scenario->anonymized);
  const UdaGraph aux = BuildUdaGraph(scenario->auxiliary);
  const StructuralSimilarity sim(anon, aux, {});
  const auto matrix = sim.ComputeMatrix();
  auto candidates = SelectTopKCandidates(matrix, 5);
  RefinedDaConfig config =
      MakeRefinedConfig(LearnerKind::kNearestCentroid, /*verify=*/true);
  config.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = RunRefinedDa(anon, aux, *candidates, nullptr,
                               DenseCandidateSource(matrix), config);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_MeanVerification)
    ->Arg(1)
    ->Arg(8)
    ->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

}  // namespace

int main(int argc, char** argv) {
  Reproduce();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
