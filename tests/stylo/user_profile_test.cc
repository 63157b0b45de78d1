#include "stylo/user_profile.h"

#include <gtest/gtest.h>

namespace dehealth {
namespace {

SparseVector MakeVector(std::initializer_list<std::pair<int, double>> init) {
  SparseVector v;
  for (const auto& [id, value] : init) v.Set(id, value);
  return v;
}

TEST(UserProfileTest, EmptyProfile) {
  UserProfile p;
  EXPECT_EQ(p.num_posts(), 0);
  EXPECT_FALSE(p.HasAttribute(1));
  EXPECT_EQ(p.AttributeWeight(1), 0);
  EXPECT_TRUE(p.MeanFeatures().empty());
}

TEST(UserProfileTest, AttributeWeightsCountPosts) {
  UserProfile p;
  p.AddPost(MakeVector({{1, 0.5}, {2, 1.0}}));
  p.AddPost(MakeVector({{1, 0.3}}));
  EXPECT_EQ(p.num_posts(), 2);
  EXPECT_TRUE(p.HasAttribute(1));
  EXPECT_EQ(p.AttributeWeight(1), 2);
  EXPECT_EQ(p.AttributeWeight(2), 1);
  EXPECT_EQ(p.AttributeWeight(3), 0);
}

TEST(UserProfileTest, MeanFeatures) {
  UserProfile p;
  p.AddPost(MakeVector({{1, 2.0}}));
  p.AddPost(MakeVector({{1, 4.0}, {2, 6.0}}));
  SparseVector mean = p.MeanFeatures();
  EXPECT_NEAR(mean.Get(1), 3.0, 1e-12);
  EXPECT_NEAR(mean.Get(2), 3.0, 1e-12);
}

TEST(UserProfileTest, SumFeatures) {
  UserProfile p;
  p.AddPost(MakeVector({{7, 1.0}}));
  p.AddPost(MakeVector({{7, 2.0}}));
  EXPECT_NEAR(p.SumFeatures().Get(7), 3.0, 1e-12);
}

}  // namespace
}  // namespace dehealth
