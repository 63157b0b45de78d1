// Cross-cutting property tests (parameterized sweeps) over the core DA
// machinery: invariants that must hold for ANY input, checked on random
// instances.

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/filtering.h"
#include "core/top_k.h"

namespace dehealth {
namespace {

std::vector<std::vector<double>> RandomMatrix(int n1, int n2,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> m(static_cast<size_t>(n1),
                                     std::vector<double>(
                                         static_cast<size_t>(n2)));
  for (auto& row : m)
    for (double& v : row) v = rng.NextDouble(0.0, 2.0);
  return m;
}

class TopKPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TopKPropertyTest, CandidateListsSortedUniqueAndBounded) {
  const auto seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed);
  const int n1 = 3 + static_cast<int>(rng.NextBounded(20));
  const int n2 = 3 + static_cast<int>(rng.NextBounded(30));
  const int k = 1 + static_cast<int>(rng.NextBounded(10));
  const auto m = RandomMatrix(n1, n2, seed + 1000);
  auto candidates = SelectTopKCandidates(m, k);
  ASSERT_TRUE(candidates.ok());
  ASSERT_EQ(candidates->size(), static_cast<size_t>(n1));
  for (size_t u = 0; u < candidates->size(); ++u) {
    const auto& list = (*candidates)[u];
    EXPECT_EQ(list.size(),
              static_cast<size_t>(std::min(k, n2)));
    // Unique ids within range.
    std::set<int> unique(list.begin(), list.end());
    EXPECT_EQ(unique.size(), list.size());
    for (int v : list) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, n2);
    }
    // Ordered by non-increasing similarity.
    for (size_t i = 1; i < list.size(); ++i)
      EXPECT_GE(m[u][static_cast<size_t>(list[i - 1])],
                m[u][static_cast<size_t>(list[i])]);
    // The top-1 candidate is the row argmax.
    const auto& row = m[u];
    EXPECT_EQ(row[static_cast<size_t>(list[0])],
              *std::max_element(row.begin(), row.end()));
  }
}

TEST_P(TopKPropertyTest, LargerKIsSuperset) {
  const auto seed = static_cast<uint64_t>(GetParam());
  const auto m = RandomMatrix(10, 25, seed + 2000);
  auto small = SelectTopKCandidates(m, 4);
  auto large = SelectTopKCandidates(m, 9);
  ASSERT_TRUE(small.ok() && large.ok());
  for (size_t u = 0; u < small->size(); ++u) {
    const std::set<int> big((*large)[u].begin(), (*large)[u].end());
    for (int v : (*small)[u]) EXPECT_TRUE(big.count(v)) << u;
  }
}

TEST_P(TopKPropertyTest, SuccessCurveMonotone) {
  const auto seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed + 3000);
  const auto m = RandomMatrix(12, 30, seed + 4000);
  std::vector<int> truth(12);
  for (int& t : truth)
    t = static_cast<int>(rng.NextBounded(30)) - (rng.NextBool(0.2) ? 40 : 0);
  auto candidates = SelectTopKCandidates(m, 30);
  ASSERT_TRUE(candidates.ok());
  const std::vector<int> ks = {1, 2, 5, 10, 20, 30};
  const auto curve = TopKSuccessCurve(*candidates, truth, ks);
  for (size_t i = 1; i < curve.size(); ++i)
    EXPECT_GE(curve[i], curve[i - 1]);
  // Full-coverage K finds every overlapping user's truth.
  int overlapping = 0;
  for (int t : truth)
    if (t >= 0) ++overlapping;
  if (overlapping > 0) {
    EXPECT_EQ(curve.back(), 1.0);
  }
}

TEST_P(TopKPropertyTest, GraphMatchingSetsAreSubsetsOfUniverse) {
  const auto seed = static_cast<uint64_t>(GetParam());
  const auto m = RandomMatrix(6, 8, seed + 5000);
  auto candidates =
      SelectTopKCandidates(m, 3, CandidateSelection::kGraphMatching);
  ASSERT_TRUE(candidates.ok());
  for (const auto& list : *candidates) {
    std::set<int> unique(list.begin(), list.end());
    EXPECT_EQ(unique.size(), list.size());
    EXPECT_LE(list.size(), 3u);
    EXPECT_GE(list.size(), 1u);  // K rounds of perfect matching, n1 <= n2
  }
}

INSTANTIATE_TEST_SUITE_P(Random, TopKPropertyTest, ::testing::Range(0, 10));

class FilteringPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FilteringPropertyTest, FilteredSetsAreSubsets) {
  const auto seed = static_cast<uint64_t>(GetParam());
  const auto m = RandomMatrix(15, 20, seed + 6000);
  auto candidates = SelectTopKCandidates(m, 8);
  ASSERT_TRUE(candidates.ok());
  FilterConfig config;
  config.epsilon = 0.05;
  auto filtered = FilterCandidates(m, *candidates, config);
  ASSERT_TRUE(filtered.ok());
  for (size_t u = 0; u < candidates->size(); ++u) {
    const std::set<int> original((*candidates)[u].begin(),
                                 (*candidates)[u].end());
    for (int v : filtered->candidates[u])
      EXPECT_TRUE(original.count(v)) << u;
    // Rejected <=> empty filtered set.
    EXPECT_EQ(filtered->rejected[u], filtered->candidates[u].empty());
  }
  // Thresholds descend.
  for (size_t i = 1; i < filtered->thresholds.size(); ++i)
    EXPECT_LE(filtered->thresholds[i], filtered->thresholds[i - 1]);
}

TEST_P(FilteringPropertyTest, SurvivorsClearTheChosenThreshold) {
  const auto seed = static_cast<uint64_t>(GetParam());
  const auto m = RandomMatrix(10, 15, seed + 7000);
  auto candidates = SelectTopKCandidates(m, 6);
  ASSERT_TRUE(candidates.ok());
  auto filtered = FilterCandidates(m, *candidates, {});
  ASSERT_TRUE(filtered.ok());
  // Every kept candidate clears at least the smallest threshold.
  const double smallest = filtered->thresholds.back();
  for (size_t u = 0; u < filtered->candidates.size(); ++u)
    for (int v : filtered->candidates[u])
      EXPECT_GE(m[u][static_cast<size_t>(v)], smallest - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Random, FilteringPropertyTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace dehealth
