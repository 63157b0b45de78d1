#include "stylo/feature_vector.h"

#include <cmath>

#include <gtest/gtest.h>

namespace dehealth {
namespace {

TEST(SparseVectorTest, SetAndGet) {
  SparseVector v;
  v.Set(5, 1.5);
  v.Set(2, -1.0);
  EXPECT_EQ(v.Get(5), 1.5);
  EXPECT_EQ(v.Get(2), -1.0);
  EXPECT_EQ(v.Get(99), 0.0);
  EXPECT_EQ(v.NumNonZero(), 2u);
}

TEST(SparseVectorTest, SetZeroRemovesEntry) {
  SparseVector v;
  v.Set(3, 2.0);
  v.Set(3, 0.0);
  EXPECT_EQ(v.NumNonZero(), 0u);
  EXPECT_TRUE(v.empty());
}

TEST(SparseVectorTest, OverwriteValue) {
  SparseVector v;
  v.Set(3, 2.0);
  v.Set(3, 7.0);
  EXPECT_EQ(v.Get(3), 7.0);
  EXPECT_EQ(v.NumNonZero(), 1u);
}

TEST(SparseVectorTest, EntriesSortedById) {
  SparseVector v;
  v.Set(9, 1.0);
  v.Set(1, 1.0);
  v.Set(5, 1.0);
  const auto& e = v.entries();
  ASSERT_EQ(e.size(), 3u);
  EXPECT_EQ(e[0].first, 1);
  EXPECT_EQ(e[1].first, 5);
  EXPECT_EQ(e[2].first, 9);
}

TEST(SparseVectorTest, AddAccumulatesAndCancels) {
  SparseVector v;
  v.Add(4, 2.0);
  v.Add(4, 3.0);
  EXPECT_EQ(v.Get(4), 5.0);
  v.Add(4, -5.0);
  EXPECT_EQ(v.NumNonZero(), 0u);
  v.Add(7, 0.0);  // no-op
  EXPECT_TRUE(v.empty());
}

TEST(SparseVectorTest, DotProductSparse) {
  SparseVector a, b;
  a.Set(1, 2.0);
  a.Set(3, 4.0);
  b.Set(3, 5.0);
  b.Set(7, 6.0);
  EXPECT_EQ(a.Dot(b), 20.0);
  EXPECT_EQ(b.Dot(a), 20.0);
}

TEST(SparseVectorTest, NormAndCosine) {
  SparseVector a, b;
  a.Set(0, 3.0);
  a.Set(1, 4.0);
  EXPECT_NEAR(a.Norm(), 5.0, 1e-12);
  b.Set(0, 3.0);
  b.Set(1, 4.0);
  EXPECT_NEAR(a.Cosine(b), 1.0, 1e-12);
  SparseVector zero;
  EXPECT_EQ(a.Cosine(zero), 0.0);
}

TEST(SparseVectorTest, CosineOrthogonal) {
  SparseVector a, b;
  a.Set(0, 1.0);
  b.Set(1, 1.0);
  EXPECT_EQ(a.Cosine(b), 0.0);
}

TEST(SparseVectorTest, ScaleAndScaleByZero) {
  SparseVector v;
  v.Set(2, 3.0);
  v.Scale(2.0);
  EXPECT_EQ(v.Get(2), 6.0);
  v.Scale(0.0);
  EXPECT_TRUE(v.empty());
}

TEST(SparseVectorTest, AddVectorMerges) {
  SparseVector a, b;
  a.Set(1, 1.0);
  a.Set(2, 2.0);
  b.Set(2, 3.0);
  b.Set(4, 4.0);
  a.AddVector(b);
  EXPECT_EQ(a.Get(1), 1.0);
  EXPECT_EQ(a.Get(2), 5.0);
  EXPECT_EQ(a.Get(4), 4.0);
}

TEST(SparseVectorTest, Equality) {
  SparseVector a, b;
  a.Set(1, 1.0);
  b.Set(1, 1.0);
  EXPECT_EQ(a, b);
  b.Set(2, 1.0);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace dehealth
