// Reproduces Table I of the paper: the stylometric feature inventory, with
// per-category counts, plus extraction-throughput benchmarks.

#include <cstring>
#include <map>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "core/uda_graph.h"
#include "datagen/forum_generator.h"
#include "stylo/extractor.h"
#include "stylo/feature_layout.h"

namespace {

using namespace dehealth;
namespace fl = feature_layout;

void Reproduce() {
  bench::Banner("Table I", "stylometric feature inventory");

  // Count ids per category from the layout itself.
  std::map<std::string, int> counts;
  for (int id = 0; id < fl::kTotalFeatures; ++id)
    ++counts[fl::FeatureCategory(id)];

  const struct {
    const char* category;
    int paper_count;  // -1: variable in the paper ("< 2300")
  } table[] = {
      {"length", 3},        {"word_length", 20},
      {"vocabulary_richness", 5}, {"letter_freq", 26},
      {"digit_freq", 10},   {"uppercase_pct", 1},
      {"special_chars", 21}, {"word_shape", 21},
      {"punctuation", 10},  {"function_words", 337},
      {"pos_tags", -1},     {"pos_bigrams", -1},
      {"misspellings", 248},
  };
  std::printf("%-24s %10s %10s\n", "category", "paper", "this impl");
  int total = 0;
  for (const auto& row : table) {
    const int ours = counts[row.category];
    total += ours;
    if (row.paper_count >= 0) {
      std::printf("%-24s %10d %10d%s\n", row.category, row.paper_count,
                  ours, ours == row.paper_count ? "" : "  (!)");
    } else {
      std::printf("%-24s %10s %10d\n", row.category, "variable", ours);
    }
  }
  std::printf("%-24s %10s %10d  (paper: M variable, < ~4900)\n", "TOTAL",
              "-", total);

  // Show the non-zero density on a real generated post.
  auto forum = GenerateForum(WebMdLikeConfig(20, 11));
  const FeatureExtractor extractor;
  const SparseVector f =
      extractor.ExtractPost(forum->dataset.posts[0].text);
  std::printf("\nexample post: %zu chars, %zu non-zero features of %d\n",
              forum->dataset.posts[0].text.size(), f.NumNonZero(),
              fl::kTotalFeatures);
}

void BM_ExtractPost(benchmark::State& state) {
  auto forum = GenerateForum(WebMdLikeConfig(100, 13));
  const FeatureExtractor extractor;
  size_t i = 0;
  int64_t bytes = 0;
  for (auto _ : state) {
    const auto& text = forum->dataset.posts[i % forum->dataset.posts.size()].text;
    auto f = extractor.ExtractPost(text);
    benchmark::DoNotOptimize(f);
    bytes += static_cast<int64_t>(text.size());
    ++i;
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_ExtractPost);

void BM_AttributeAggregation(benchmark::State& state) {
  auto forum = GenerateForum(WebMdLikeConfig(100, 13));
  const FeatureExtractor extractor;
  std::vector<SparseVector> vectors;
  for (size_t i = 0; i < 50 && i < forum->dataset.posts.size(); ++i)
    vectors.push_back(extractor.ExtractPost(forum->dataset.posts[i].text));
  for (auto _ : state) {
    AttributeCounts attributes = CountAttributes(vectors);
    benchmark::DoNotOptimize(attributes);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(vectors.size()));
}
BENCHMARK(BM_AttributeAggregation);

}  // namespace

int main(int argc, char** argv) {
  Reproduce();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
