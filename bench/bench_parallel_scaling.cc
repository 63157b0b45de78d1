// Wall-clock scaling of the parallelized DA pipeline stages on a generated
// 2k-user forum: StructuralSimilarity::ComputeMatrix and RunRefinedDa at
// num_threads 1 vs 4 vs 8. Both stages are bitwise-deterministic in the
// thread count (see DESIGN.md "Threading model"), so the speedup is free —
// identical output, less wall-clock.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "core/de_health.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"

namespace {

using namespace dehealth;

struct ScalingFixture {
  UdaGraph anon;
  UdaGraph aux;
  std::vector<std::vector<double>> matrix;
  CandidateSets candidates;
};

const ScalingFixture& Fixture() {
  static const ScalingFixture* fixture = [] {
    auto forum = GenerateForum(WebMdLikeConfig(2000, 111));
    auto scenario = MakeClosedWorldScenario(forum->dataset, 0.5, 3);
    auto* f = new ScalingFixture{BuildUdaGraph(scenario->anonymized),
                                 BuildUdaGraph(scenario->auxiliary),
                                 {},
                                 {}};
    SimilarityConfig sim_config;
    f->matrix = StructuralSimilarity(f->anon, f->aux, sim_config)
                    .ComputeMatrix();
    f->candidates = *SelectTopKCandidates(f->matrix, 5);
    return f;
  }();
  return *fixture;
}

// Arg: num_threads.
void BM_ComputeMatrixScaling(benchmark::State& state) {
  const ScalingFixture& f = Fixture();
  SimilarityConfig config;
  config.num_threads = static_cast<int>(state.range(0));
  const StructuralSimilarity sim(f.anon, f.aux, config);
  for (auto _ : state) {
    auto matrix = sim.ComputeMatrix();
    benchmark::DoNotOptimize(matrix);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.anon.num_users()) *
                          f.aux.num_users());
}
BENCHMARK(BM_ComputeMatrixScaling)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Iterations(2);

// Arg: num_threads.
void BM_RunRefinedDaScaling(benchmark::State& state) {
  const ScalingFixture& f = Fixture();
  RefinedDaConfig config;
  config.learner = LearnerKind::kNearestCentroid;
  config.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = RunRefinedDa(f.anon, f.aux, f.candidates, nullptr,
                               DenseCandidateSource(f.matrix), config);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * f.anon.num_users());
}
BENCHMARK(BM_RunRefinedDaScaling)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Iterations(2);

}  // namespace

int main(int argc, char** argv) {
  dehealth::bench::Banner("Parallel scaling",
                          "2k-user forum, threads 1/4/8 (real time)");
  dehealth::bench::PrintThreadsInfo(0);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
