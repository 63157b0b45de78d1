// Ablation benches for the design choices DESIGN.md calls out:
//  1. similarity weight vector c = (c1, c2, c3),
//  2. landmark count ħ,
//  3. candidate selection strategy (direct vs graph matching),
//  4. Algorithm-2 filtering on/off,
//  5. open-world verification scheme,
//  6. writing-style diversity (the anonymization knob of the generator).

#include <numeric>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "common/string_utils.h"
#include "core/de_health.h"
#include "core/evaluation.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"

namespace {

using namespace dehealth;

struct Prepared {
  DaScenario scenario;
  UdaGraph anon;
  UdaGraph aux;
};

Prepared Prepare(int users, uint64_t seed, double diversity = 1.0) {
  ForumConfig config = WebMdLikeConfig(users, seed);
  config.min_posts_per_user = 4;
  config.style.profile_diversity = diversity;
  auto forum = GenerateForum(config);
  auto scenario = MakeClosedWorldScenario(forum->dataset, 0.5, 7);
  Prepared p;
  p.scenario = std::move(scenario).value();
  p.anon = BuildUdaGraph(p.scenario.anonymized);
  p.aux = BuildUdaGraph(p.scenario.auxiliary);
  return p;
}

double Top10Success(const Prepared& p, SimilarityConfig sim_config) {
  const StructuralSimilarity sim(p.anon, p.aux, sim_config);
  auto candidates = SelectTopKCandidates(sim.ComputeMatrix(), 10);
  return TopKSuccessRate(*candidates, p.scenario.truth);
}

void AblateSimilarityWeights(const Prepared& p) {
  bench::Banner("Ablation 1", "similarity weight vector c1/c2/c3");
  const struct {
    const char* name;
    double c1, c2, c3;
  } settings[] = {
      {"paper (.05,.05,.9)", 0.05, 0.05, 0.9},
      {"attributes only", 0.0, 0.0, 1.0},
      {"degree only", 1.0, 0.0, 0.0},
      {"distance only", 0.0, 1.0, 0.0},
      {"uniform thirds", 1.0 / 3, 1.0 / 3, 1.0 / 3},
  };
  for (const auto& s : settings) {
    SimilarityConfig config;
    config.c1 = s.c1;
    config.c2 = s.c2;
    config.c3 = s.c3;
    std::printf("  %-22s top-10 success = %.3f\n", s.name,
                Top10Success(p, config));
  }
}

void AblateIdfWeighting(const Prepared& p) {
  bench::Banner("Ablation 1b", "IDF attribute weighting");
  for (bool idf : {false, true}) {
    SimilarityConfig config;
    config.idf_weight_attributes = idf;
    std::printf("  idf=%-5s top-10 success = %.3f\n", idf ? "on" : "off",
                Top10Success(p, config));
  }
}

void AblateLandmarks(const Prepared& p) {
  bench::Banner("Ablation 2", "landmark count (distance channel only)");
  for (int landmarks : {1, 5, 20, 50, 100}) {
    SimilarityConfig config;
    config.c1 = 0.0;
    config.c2 = 1.0;
    config.c3 = 0.0;
    config.num_landmarks = landmarks;
    std::printf("  landmarks=%-4d top-10 success = %.3f\n", landmarks,
                Top10Success(p, config));
  }
}

void AblateSelection() {
  bench::Banner("Ablation 3", "direct vs graph-matching selection");
  // Graph matching is O(K n^3): run on a small instance.
  Prepared p = Prepare(120, 91);
  const StructuralSimilarity sim(p.anon, p.aux, {});
  const auto matrix = sim.ComputeMatrix();
  for (auto method : {CandidateSelection::kDirect,
                      CandidateSelection::kGraphMatching}) {
    auto candidates = SelectTopKCandidates(matrix, 5, method);
    std::printf("  %-16s top-5 success = %.3f\n",
                method == CandidateSelection::kDirect ? "direct"
                                                      : "graph matching",
                TopKSuccessRate(*candidates, p.scenario.truth));
  }
}

void AblateFiltering(const Prepared& p) {
  bench::Banner("Ablation 4", "Algorithm-2 filtering");
  const StructuralSimilarity sim(p.anon, p.aux, {});
  const auto matrix = sim.ComputeMatrix();
  auto candidates = SelectTopKCandidates(matrix, 20);
  const double before = TopKSuccessRate(*candidates, p.scenario.truth);
  double mean_before = 0.0;
  for (const auto& c : *candidates) mean_before += c.size();
  mean_before /= static_cast<double>(candidates->size());

  auto filtered = FilterCandidates(matrix, *candidates, {});
  const double after =
      TopKSuccessRate(filtered->candidates, p.scenario.truth);
  double mean_after = 0.0;
  for (const auto& c : filtered->candidates) mean_after += c.size();
  mean_after /= static_cast<double>(filtered->candidates.size());
  int rejected = 0;
  for (bool r : filtered->rejected)
    if (r) ++rejected;
  std::printf("  without filtering: |C_u|=%.1f  top-K success=%.3f\n",
              mean_before, before);
  std::printf("  with filtering:    |C_u|=%.1f  top-K success=%.3f  "
              "(rejected %d users)\n",
              mean_after, after, rejected);
}

void AblateVerification() {
  bench::Banner("Ablation 5", "open-world verification schemes");
  ForumConfig config = WebMdLikeConfig(160, 93);
  config.min_posts_per_user = 8;
  auto forum = GenerateForum(config);
  auto scenario = MakeOpenWorldScenario(forum->dataset, 0.5, 11);
  const UdaGraph anon = BuildUdaGraph(scenario->anonymized);
  const UdaGraph aux = BuildUdaGraph(scenario->auxiliary);
  const StructuralSimilarity sim(anon, aux, {});
  const auto matrix = sim.ComputeMatrix();
  auto candidates = SelectTopKCandidates(matrix, 5);

  const struct {
    const char* name;
    VerificationScheme scheme;
  } schemes[] = {
      {"none", VerificationScheme::kNone},
      {"false addition", VerificationScheme::kFalseAddition},
      {"mean verification", VerificationScheme::kMeanVerification},
  };
  for (const auto& s : schemes) {
    RefinedDaConfig refined;
    refined.learner = LearnerKind::kNearestCentroid;
    refined.verification = s.scheme;
    auto result = RunRefinedDa(anon, aux, *candidates, nullptr,
                               DenseCandidateSource(matrix), refined);
    const auto counts = EvaluateRefinedDa(*result, scenario->truth);
    std::printf("  %-20s accuracy=%.3f  FP=%.3f\n", s.name,
                counts.Accuracy(), counts.FalsePositiveRate());
  }
}

void AblateStyleDiversity() {
  bench::Banner("Ablation 6",
                "style diversity (generator anonymization knob)");
  for (double diversity : {1.0, 0.5, 0.2, 0.0}) {
    Prepared p = Prepare(300, 95, diversity);
    std::printf("  diversity=%.1f  top-10 success = %.3f\n", diversity,
                Top10Success(p, {}));
  }
  std::printf("  (diversity scales habit spread; residual success at 0 "
              "comes from the separate\n   vocabulary-personalization "
              "channel — see StylePopulationConfig)\n");
}

void BM_FilterCandidates(benchmark::State& state) {
  Prepared p = Prepare(300, 97);
  const StructuralSimilarity sim(p.anon, p.aux, {});
  const auto matrix = sim.ComputeMatrix();
  auto candidates = SelectTopKCandidates(matrix, 50);
  for (auto _ : state) {
    auto filtered = FilterCandidates(matrix, *candidates, {});
    benchmark::DoNotOptimize(filtered);
  }
}
BENCHMARK(BM_FilterCandidates);

void BM_GraphMatchingSelection(benchmark::State& state) {
  Prepared p = Prepare(100, 99);
  const StructuralSimilarity sim(p.anon, p.aux, {});
  const auto matrix = sim.ComputeMatrix();
  for (auto _ : state) {
    auto candidates = SelectTopKCandidates(
        matrix, 3, CandidateSelection::kGraphMatching);
    benchmark::DoNotOptimize(candidates);
  }
}
BENCHMARK(BM_GraphMatchingSelection)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  Prepared p = Prepare(400, 89);
  AblateSimilarityWeights(p);
  AblateIdfWeighting(p);
  AblateLandmarks(p);
  AblateSelection();
  AblateFiltering(p);
  AblateVerification();
  AblateStyleDiversity();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
