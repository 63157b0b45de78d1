#include "core/evaluation.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dehealth {
namespace {

std::vector<std::vector<double>> TiedMatrix(size_t n1, size_t n2,
                                            uint64_t seed) {
  // Few distinct values, so ties are common and the smaller-id rule is
  // exercised.
  Rng rng(seed);
  std::vector<std::vector<double>> m(n1, std::vector<double>(n2));
  for (auto& row : m)
    for (double& s : row) s = static_cast<double>(rng.NextBounded(5)) / 4.0;
  return m;
}

TEST(EvaluationTest, RankIsPositionInTopK) {
  const auto m = TiedMatrix(30, 17, 3);
  const DenseCandidateSource source(m);
  std::vector<int> truth(30);
  for (size_t u = 0; u < truth.size(); ++u)
    truth[u] = static_cast<int>((u * 7) % 17);
  auto top = source.TopK(17, 1);
  ASSERT_TRUE(top.ok());
  const std::vector<int> ranks = TrueIdentityRanks(source, truth, 1);
  ASSERT_EQ(ranks.size(), truth.size());
  for (size_t u = 0; u < truth.size(); ++u) {
    const std::vector<int>& list = (*top)[u];
    const auto at = std::find(list.begin(), list.end(), truth[u]);
    ASSERT_NE(at, list.end());
    EXPECT_EQ(ranks[u], static_cast<int>(at - list.begin()) + 1)
        << "user " << u;
  }
}

TEST(EvaluationTest, SkipsUsersWithoutTrueIdentity) {
  const std::vector<std::vector<double>> m = {
      {0.2, 0.9, 0.4}, {0.5, 0.5, 0.1}, {0.3, 0.1, 0.7}};
  const DenseCandidateSource source(m);
  // User 0 maps to 2 (third best), user 1 has no mapping, user 2 maps
  // outside the universe.
  EXPECT_EQ(TrueIdentityRanks(source, {2, -1, 3}, 2), std::vector<int>{2});
  // Ties rank the smaller id first.
  EXPECT_EQ(TrueIdentityRanks(source, {1, 1, 2}, 2),
            (std::vector<int>{1, 2, 1}));
}

TEST(EvaluationTest, RanksIndependentOfThreadCount) {
  const auto m = TiedMatrix(101, 23, 9);
  const DenseCandidateSource source(m);
  std::vector<int> truth(101);
  for (size_t u = 0; u < truth.size(); ++u)
    truth[u] = u % 5 == 0 ? -1 : static_cast<int>(u % 23);
  const std::vector<int> serial = TrueIdentityRanks(source, truth, 1);
  EXPECT_EQ(serial.size(), 80u);
  for (const int threads : {2, 4, 8, 0})
    EXPECT_EQ(TrueIdentityRanks(source, truth, threads), serial)
        << "threads=" << threads;
}

}  // namespace
}  // namespace dehealth
