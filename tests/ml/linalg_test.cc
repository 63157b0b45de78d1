#include "ml/linalg.h"

#include <cmath>

#include <gtest/gtest.h>

namespace dehealth {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.At(1, 2), 1.5);
  m.At(0, 1) = 7.0;
  EXPECT_EQ(m.At(0, 1), 7.0);
}

TEST(MatrixTest, TransposeMatVec) {
  Matrix m(2, 3);
  m.At(0, 0) = 1.0;
  m.At(1, 2) = 5.0;
  auto y = m.TransposeMatVec({2.0, 3.0});
  ASSERT_EQ(y.size(), 3u);
  EXPECT_EQ(y[0], 2.0);
  EXPECT_EQ(y[2], 15.0);
}

TEST(MatrixTest, GramIsSymmetricPsd) {
  Matrix x(3, 2);
  x.At(0, 0) = 1.0;
  x.At(1, 1) = 2.0;
  x.At(2, 0) = 3.0;
  x.At(2, 1) = 1.0;
  Matrix g = x.Gram();
  EXPECT_EQ(g.rows(), 2u);
  EXPECT_EQ(g.At(0, 1), g.At(1, 0));
  EXPECT_EQ(g.At(0, 0), 10.0);  // 1 + 9
  EXPECT_EQ(g.At(1, 1), 5.0);   // 4 + 1
  EXPECT_EQ(g.At(0, 1), 3.0);
}

TEST(MatrixTest, AddDiagonal) {
  Matrix m(2, 2);
  m.AddDiagonal(2.5);
  EXPECT_EQ(m.At(0, 0), 2.5);
  EXPECT_EQ(m.At(1, 1), 2.5);
  EXPECT_EQ(m.At(0, 1), 0.0);
}

TEST(CholeskySolveTest, SolvesSpdSystem) {
  // A = [[4,2],[2,3]], b = [10, 8] => x = [1.75, 1.5].
  Matrix a(2, 2);
  a.At(0, 0) = 4.0;
  a.At(0, 1) = 2.0;
  a.At(1, 0) = 2.0;
  a.At(1, 1) = 3.0;
  auto l = CholeskyFactor(a);
  ASSERT_TRUE(l.ok());
  EXPECT_EQ(l->At(0, 0), 2.0);  // sqrt(4)
  EXPECT_EQ(l->At(1, 0), 1.0);  // 2 / 2
  EXPECT_EQ(l->At(0, 1), 0.0);  // lower-triangular
  auto x = CholeskySolve(*l, {10.0, 8.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.75, 1e-9);
  EXPECT_NEAR((*x)[1], 1.5, 1e-9);
  // One factor serves every right-hand side: A [1, 1] = [6, 5].
  auto y = CholeskySolve(*l, {6.0, 5.0});
  ASSERT_TRUE(y.ok());
  EXPECT_NEAR((*y)[0], 1.0, 1e-12);
  EXPECT_NEAR((*y)[1], 1.0, 1e-12);
}

TEST(CholeskySolveTest, IdentitySolve) {
  Matrix a(3, 3);
  a.AddDiagonal(1.0);
  auto l = CholeskyFactor(a);
  ASSERT_TRUE(l.ok());
  auto x = CholeskySolve(*l, {1.0, 2.0, 3.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[2], 3.0, 1e-12);
}

TEST(CholeskySolveTest, RejectsNonSquare) {
  Matrix a(2, 3);
  auto l = CholeskyFactor(a);
  EXPECT_FALSE(l.ok());
  EXPECT_EQ(l.status().code(), StatusCode::kInvalidArgument);
}

TEST(CholeskySolveTest, RejectsSizeMismatch) {
  Matrix a(2, 2);
  a.AddDiagonal(1.0);
  auto l = CholeskyFactor(a);
  ASSERT_TRUE(l.ok());
  auto x = CholeskySolve(*l, {1.0});
  EXPECT_FALSE(x.ok());
  EXPECT_EQ(x.status().code(), StatusCode::kInvalidArgument);
}

TEST(CholeskySolveTest, RejectsIndefiniteMatrix) {
  Matrix a(2, 2);
  a.At(0, 0) = 1.0;
  a.At(0, 1) = 5.0;
  a.At(1, 0) = 5.0;
  a.At(1, 1) = 1.0;  // eigenvalues 6, -4
  auto l = CholeskyFactor(a);
  EXPECT_FALSE(l.ok());
  EXPECT_EQ(l.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DistanceTest, EuclideanAndDot) {
  using V = std::vector<double>;
  EXPECT_NEAR(EuclideanDistance(V{0.0, 0.0}, V{3.0, 4.0}), 5.0, 1e-12);
  EXPECT_EQ(EuclideanDistance(V{1.0}, V{1.0}), 0.0);
  EXPECT_EQ(DotProduct(V{1.0, 2.0}, V{3.0, 4.0}), 11.0);
  EXPECT_EQ(DotProduct({}, {}), 0.0);
}

}  // namespace
}  // namespace dehealth
