#include "core/filtering.h"

#include <atomic>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/de_health.h"

namespace dehealth {
namespace {

TEST(FilterCandidatesTest, RejectsBadConfig) {
  FilterConfig config;
  config.num_thresholds = 0;
  EXPECT_FALSE(FilterCandidates({{1.0}}, {{0}}, config).ok());
  config = FilterConfig{};
  config.epsilon = -1.0;
  EXPECT_FALSE(FilterCandidates({{1.0}}, {{0}}, config).ok());
}

TEST(FilterCandidatesTest, RejectsSizeMismatch) {
  EXPECT_FALSE(FilterCandidates({{1.0}}, {{0}, {0}}, {}).ok());
}

TEST(FilterCandidatesTest, EmptyInput) {
  auto r = FilterCandidates({}, {}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->candidates.empty());
}

TEST(FilterCandidatesTest, ThresholdVectorShape) {
  const std::vector<std::vector<double>> sim = {{0.1, 0.9}};
  FilterConfig config;
  config.num_thresholds = 5;
  config.epsilon = 0.0;
  auto r = FilterCandidates(sim, {{1, 0}}, config);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->thresholds.size(), 5u);
  EXPECT_NEAR(r->thresholds.front(), 0.9, 1e-12);  // s_max
  EXPECT_NEAR(r->thresholds.back(), 0.1, 1e-12);   // s_min + eps
  for (size_t i = 1; i < r->thresholds.size(); ++i)
    EXPECT_LE(r->thresholds[i], r->thresholds[i - 1]);
}

TEST(FilterCandidatesTest, KeepsOnlyTopTierCandidates) {
  // User 0: candidates with sims .9 and .1; the first non-empty threshold
  // level keeps only the .9 candidate.
  const std::vector<std::vector<double>> sim = {{0.1, 0.9}};
  auto r = FilterCandidates(sim, {{1, 0}}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->candidates[0], std::vector<int>{1});
  EXPECT_FALSE(r->rejected[0]);
}

TEST(FilterCandidatesTest, GlobalThresholdRejectsWeakUsers) {
  // User 1's best candidate (.2) is below even the smallest threshold
  // derived from the global scale (min .2 + eps .5 => s_l = .7).
  const std::vector<std::vector<double>> sim = {{0.9, 0.8}, {0.2, 0.2}};
  FilterConfig config;
  config.epsilon = 0.5;
  config.num_thresholds = 3;
  auto r = FilterCandidates(sim, {{0, 1}, {0, 1}}, config);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->rejected[0]);
  EXPECT_TRUE(r->rejected[1]);  // u → ⊥
  EXPECT_TRUE(r->candidates[1].empty());
}

TEST(FilterCandidatesTest, SingleThresholdLevel) {
  const std::vector<std::vector<double>> sim = {{0.5, 0.9}};
  FilterConfig config;
  config.num_thresholds = 1;
  config.epsilon = 0.0;
  auto r = FilterCandidates(sim, {{1, 0}}, config);
  ASSERT_TRUE(r.ok());
  // Only threshold = s_max = 0.9: keeps just candidate 1.
  EXPECT_EQ(r->candidates[0], std::vector<int>{1});
}

TEST(FilterCandidatesTest, PreservesCandidateOrder) {
  const std::vector<std::vector<double>> sim = {{0.5, 0.9, 0.85}};
  FilterConfig config;
  config.num_thresholds = 10;
  config.epsilon = 0.0;
  auto r = FilterCandidates(sim, {{1, 2, 0}}, config);
  ASSERT_TRUE(r.ok());
  // 0.9 survives level 0 alone; order of survivors preserved.
  EXPECT_EQ(r->candidates[0].front(), 1);
}

TEST(FilterCandidatesTest, UniformSimilaritiesKeepEverything) {
  const std::vector<std::vector<double>> sim = {{0.5, 0.5, 0.5}};
  auto r = FilterCandidates(sim, {{0, 1, 2}}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->candidates[0].size(), 3u);
  EXPECT_FALSE(r->rejected[0]);
}

TEST(FilteringTest, RejectsOutOfRangeCandidate) {
  const std::vector<std::vector<double>> sim = {{0.1, 0.9}, {0.4, 0.3}};
  for (const int bad : {-1, 2, 1000}) {
    auto r = FilterCandidates(sim, {{1, 0}, {0, bad}}, {});
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("candidate id"), std::string::npos);
  }
}

std::vector<std::vector<double>> RandomMatrix(size_t n1, size_t n2,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> m(n1, std::vector<double>(n2));
  for (auto& row : m)
    for (double& s : row) s = rng.NextDouble();
  return m;
}

/// Counts Row calls; scores come from a borrowed matrix.
class CountingSource final : public CandidateSource {
 public:
  explicit CountingSource(const std::vector<std::vector<double>>& m)
      : dense_(m) {}
  int num_anonymized() const override { return dense_.num_anonymized(); }
  int num_auxiliary() const override { return dense_.num_auxiliary(); }
  double Score(NodeId u, NodeId v) const override {
    return dense_.Score(u, v);
  }
  const std::vector<double>& Row(NodeId u,
                                 std::vector<double>* scratch) const override {
    rows_.fetch_add(1);
    return dense_.Row(u, scratch);
  }
  int rows() const { return rows_.load(); }

 private:
  DenseCandidateSource dense_;
  mutable std::atomic<int> rows_{0};
};

TEST(FilteringTest, FilteredSelectionReadsEachRowOnce) {
  // Top-K and filtering share one pass over the rows: the filter takes
  // its global range from that pass and reads only candidate scores.
  const auto m = RandomMatrix(23, 41, 5);
  DeHealthConfig config;
  config.top_k = 6;
  config.enable_filtering = true;
  config.filter.epsilon = 0.3;
  for (const int threads : {1, 4}) {
    config.num_threads = threads;
    const CountingSource source(m);
    DeHealthCandidates raw;
    auto state = DeHealth(config).SelectCandidates(source, &raw);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    EXPECT_EQ(source.rows(), 23) << "threads=" << threads;
    // The matrix overload (one serial scan for the range) is the reference.
    auto top = SelectTopKCandidates(m, 6);
    ASSERT_TRUE(top.ok());
    EXPECT_EQ(raw.candidates, *top);
    auto reference = FilterCandidates(m, *top, config.filter);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(state->candidates, reference->candidates);
    EXPECT_EQ(state->rejected, reference->rejected);
  }
}

}  // namespace
}  // namespace dehealth
