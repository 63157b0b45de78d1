// Extension bench (the paper's stated future work: "understanding which
// features are more effective in de-anonymizing online health data"):
// Top-10 DA success when the attribute channel is restricted to a single
// Table-I category, and when a single category is removed.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "core/de_health.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "stylo/feature_mask.h"

namespace {

using namespace dehealth;

/// Rebuilds a UDA graph with every post vector passed through `transform`.
template <typename Transform>
UdaGraph MaskUda(const UdaGraph& source, Transform&& transform) {
  UdaGraph masked;
  masked.graph = source.graph;
  masked.post_features.resize(source.post_features.size());
  for (size_t u = 0; u < source.post_features.size(); ++u) {
    for (const SparseVector& f : source.post_features[u])
      masked.post_features[u].push_back(transform(f));
    masked.attributes.push_back(CountAttributes(masked.post_features[u]));
  }
  return masked;
}

double Top10(const UdaGraph& anon, const UdaGraph& aux,
             const std::vector<int>& truth) {
  SimilarityConfig config;
  config.c1 = 0.0;  // isolate the attribute channel
  config.c2 = 0.0;
  config.c3 = 1.0;
  const StructuralSimilarity sim(anon, aux, config);
  auto candidates = SelectTopKCandidates(sim.ComputeMatrix(), 10);
  if (!candidates.ok()) return -1.0;
  return TopKSuccessRate(*candidates, truth);
}

void Reproduce() {
  bench::Banner("Feature ablation",
                "attribute-channel Top-10 success by Table-I category");
  ForumConfig forum_config = WebMdLikeConfig(300, 211);
  forum_config.min_posts_per_user = 4;
  auto forum = GenerateForum(forum_config);
  if (!forum.ok()) return;
  auto scenario = MakeClosedWorldScenario(forum->dataset, 0.5, 7);
  if (!scenario.ok()) return;
  const UdaGraph anon = BuildUdaGraph(scenario->anonymized);
  const UdaGraph aux = BuildUdaGraph(scenario->auxiliary);

  std::printf("%-24s %12s %14s\n", "category", "only this", "without this");
  std::printf("%-24s %12.3f %14s\n", "(all features)",
              Top10(anon, aux, scenario->truth), "-");
  for (const std::string& category : AllFeatureCategories()) {
    const std::vector<std::string> one = {category};
    const UdaGraph anon_only =
        MaskUda(anon, [&](const SparseVector& f) {
          return KeepCategories(f, one);
        });
    const UdaGraph aux_only = MaskUda(aux, [&](const SparseVector& f) {
      return KeepCategories(f, one);
    });
    const UdaGraph anon_without =
        MaskUda(anon, [&](const SparseVector& f) {
          return DropCategories(f, one);
        });
    const UdaGraph aux_without =
        MaskUda(aux, [&](const SparseVector& f) {
          return DropCategories(f, one);
        });
    std::printf("%-24s %12.3f %14.3f\n", category.c_str(),
                Top10(anon_only, aux_only, scenario->truth),
                Top10(anon_without, aux_without, scenario->truth));
  }
  std::printf(
      "\nreading: 'only this' isolates one category's identifying power; "
      "'without this'\nshows how much the full system depends on it.\n");
}

void BM_MaskedUdaRebuild(benchmark::State& state) {
  auto forum = GenerateForum(WebMdLikeConfig(150, 213));
  const UdaGraph uda = BuildUdaGraph(forum->dataset);
  const std::vector<std::string> categories = {"function_words"};
  for (auto _ : state) {
    UdaGraph masked = MaskUda(uda, [&](const SparseVector& f) {
      return KeepCategories(f, categories);
    });
    benchmark::DoNotOptimize(masked);
  }
}
BENCHMARK(BM_MaskedUdaRebuild);

void BM_KeepCategories(benchmark::State& state) {
  auto forum = GenerateForum(WebMdLikeConfig(50, 215));
  const UdaGraph uda = BuildUdaGraph(forum->dataset);
  const SparseVector& f = uda.post_features[0][0];
  const std::vector<std::string> categories = {"pos_bigrams",
                                               "function_words"};
  for (auto _ : state) {
    auto kept = KeepCategories(f, categories);
    benchmark::DoNotOptimize(kept);
  }
}
BENCHMARK(BM_KeepCategories);

}  // namespace

int main(int argc, char** argv) {
  Reproduce();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
