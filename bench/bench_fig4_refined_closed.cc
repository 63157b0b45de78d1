// Reproduces Fig. 4: closed-world refined-DA accuracy. 50 users with 20
// (resp. 40) posts each; 10 (resp. 20) posts per user for training and the
// rest for testing; learners KNN and SMO; De-Health with K ∈ {5,10,15,20}
// vs. the "Stylometry" baseline (the same classifier without the Top-K
// phase).
//
// Paper anchors: De-Health dramatically outperforms Stylometry (e.g.
// SMO-20: 70% vs 8%); smaller K beats larger K when training data are
// scarce; SMO beats KNN.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "common/string_utils.h"
#include "core/de_health.h"
#include "core/evaluation.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"

namespace {

using namespace dehealth;

struct Setting {
  const char* label;
  int posts_per_user;
};

RefinedDaConfig MakeRefinedConfig(LearnerKind learner) {
  RefinedDaConfig config;
  config.learner = learner;
  config.knn_k = 3;
  // Weka-era pipeline: per-post instances, majority vote across the
  // user's posts (see EXPERIMENTS.md on the Fig. 4/6 regime).
  config.aggregation = RefinedDaConfig::PostAggregation::kMajorityVote;
  config.svm.max_iterations = 150;
  return config;
}

void RunSetting(const Setting& setting) {
  // The paper samples its 50-user panels out of the full 89K-user forum,
  // so the panel's interaction graph is nearly empty and the per-post
  // style signal is weak (topic-dominated). Reconstruct that regime: a
  // large forum in the scarce-signal configuration, then a panel of users
  // with exactly `posts_per_user` posts (see EXPERIMENTS.md).
  ForumConfig forum_config = WebMdLikeConfig(1200, 51);
  forum_config.post_count_exponent = 1.3;  // enough heavy posters to panel
  forum_config.style.profile_diversity = 0.35;
  forum_config.style.vocab_personalization = 0.15;
  forum_config.style.topic_word_rate = 0.45;
  auto forum = GenerateForum(forum_config);
  if (!forum.ok()) return;
  auto panel =
      SampleUserPanel(forum->dataset, 50, setting.posts_per_user, 3);
  if (!panel.ok()) {
    std::fprintf(stderr, "panel sampling failed: %s\n",
                 panel.status().ToString().c_str());
    return;
  }
  auto scenario = MakeClosedWorldScenario(*panel, 0.5, 7);
  if (!scenario.ok()) return;
  const UdaGraph anon = BuildUdaGraph(scenario->anonymized);
  const UdaGraph aux = BuildUdaGraph(scenario->auxiliary);
  SimilarityConfig sim_config;
  sim_config.num_landmarks = 5;
  sim_config.idf_weight_attributes = true;  // paper: ħ = 5 for the small datasets
  const StructuralSimilarity sim(anon, aux, sim_config);
  const auto matrix = sim.ComputeMatrix();

  // Phase-1 context: Top-K inclusion rates bound the refined accuracy.
  {
    std::vector<double> inclusion = {0.0};
    for (int k : {5, 10, 15, 20}) {
      auto candidates = SelectTopKCandidates(matrix, k);
      inclusion.push_back(
          candidates.ok()
              ? TopKSuccessRate(*candidates, scenario->truth)
              : -1.0);
    }
    bench::PrintSeries(StrFormat("(incl.)-%s", setting.label), inclusion);
  }

  for (LearnerKind learner : {LearnerKind::kKnn, LearnerKind::kSmoSvm}) {
    const RefinedDaConfig refined = MakeRefinedConfig(learner);
    // Stylometry baseline: classifier over all 50 users.
    auto baseline = RunStylometryBaseline(anon, aux, matrix, refined);
    const double baseline_acc =
        baseline.ok()
            ? EvaluateRefinedDa(*baseline, scenario->truth).Accuracy()
            : -1.0;

    std::vector<double> row = {baseline_acc};
    for (int k : {5, 10, 15, 20}) {
      auto candidates = SelectTopKCandidates(matrix, k);
      if (!candidates.ok()) continue;
      auto result = RunRefinedDa(anon, aux, *candidates, nullptr,
                                 DenseCandidateSource(matrix), refined);
      row.push_back(
          result.ok()
              ? EvaluateRefinedDa(*result, scenario->truth).Accuracy()
              : -1.0);
    }
    bench::PrintSeries(StrFormat("%s-%s", LearnerKindName(learner),
                                 setting.label),
                       row);
  }
}

void Reproduce() {
  bench::Banner("Fig. 4",
                "closed-world refined DA accuracy (50 WebMD-like users)");
  bench::PrintThreadsInfo(0);
  std::printf("%-24s%8s%8s%8s%8s%8s\n", "", "Stylo", "K=5", "K=10", "K=15",
              "K=20");
  RunSetting({"10", 20});  // 20 posts -> 10 train / 10 test
  RunSetting({"20", 40});  // 40 posts -> 20 train / 20 test
  std::printf(
      "\nexpected shape: De-Health >> Stylometry at every K; smaller K "
      "tends to win;\nSMO >= KNN. (paper: SMO-20 De-Health K=5 ~0.70 vs "
      "Stylometry ~0.08)\n");
}

// Arg: num_threads.
void BM_RefinedDaPerUser(benchmark::State& state) {
  ForumConfig forum_config = WebMdLikeConfig(50, 53);
  forum_config.min_posts_per_user = 20;
  forum_config.max_posts_per_user = 20;
  auto forum = GenerateForum(forum_config);
  auto scenario = MakeClosedWorldScenario(forum->dataset, 0.5, 7);
  const UdaGraph anon = BuildUdaGraph(scenario->anonymized);
  const UdaGraph aux = BuildUdaGraph(scenario->auxiliary);
  const StructuralSimilarity sim(anon, aux, {});
  const auto matrix = sim.ComputeMatrix();
  auto candidates = SelectTopKCandidates(matrix, 5);
  RefinedDaConfig config = MakeRefinedConfig(LearnerKind::kSmoSvm);
  config.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = RunRefinedDa(anon, aux, *candidates, nullptr,
                               DenseCandidateSource(matrix), config);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * anon.num_users());
}
BENCHMARK(BM_RefinedDaPerUser)
    ->Arg(1)
    ->Arg(8)
    ->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace

int main(int argc, char** argv) {
  Reproduce();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
