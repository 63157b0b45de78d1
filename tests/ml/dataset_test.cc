#include "ml/dataset.h"

#include <gtest/gtest.h>

namespace dehealth {
namespace {

TEST(DatasetTest, ExplicitDims) {
  const Dataset d(3, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}, {1, 2});
  EXPECT_EQ(d.dims(), 3u);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.row(1).size(), 3u);
  EXPECT_EQ(d.row(1)[0], 4.0);
  const Dataset none(3, {}, {});
  EXPECT_EQ(none.dims(), 3u);
  EXPECT_TRUE(none.empty());
}

TEST(DatasetTest, LabelsSortedUnique) {
  const Dataset d(1, {1.0, 2.0, 3.0}, {5, 1, 5});
  auto labels = d.Labels();
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0], 1);
  EXPECT_EQ(labels[1], 5);
}

TEST(DatasetTest, Indexing) {
  Dataset d(2, {1.0, 2.0}, {7});
  EXPECT_EQ(d.label(0), 7);
  EXPECT_EQ(d.row(0)[1], 2.0);
  d.row(0)[1] = 5.0;  // rows are written in place
  EXPECT_EQ(d.row(0)[1], 5.0);
}

TEST(StandardScalerTest, FitRejectsEmpty) {
  StandardScaler s;
  EXPECT_FALSE(s.Fit(Dataset()).ok());
  EXPECT_FALSE(s.fitted());
}

TEST(StandardScalerTest, StandardizesToZeroMeanUnitVariance) {
  StandardScaler s;
  ASSERT_TRUE(s.Fit(Dataset(2, {1.0, 10.0, 3.0, 10.0}, {0, 1})).ok());
  EXPECT_TRUE(s.fitted());
  EXPECT_NEAR(s.mean()[0], 2.0, 1e-12);

  std::vector<double> t0 = {1.0, 10.0};
  std::vector<double> t1 = {3.0, 10.0};
  s.Transform(t0);
  s.Transform(t1);
  EXPECT_NEAR(t0[0], -1.0, 1e-12);
  EXPECT_NEAR(t1[0], 1.0, 1e-12);
  // Constant feature maps to 0.
  EXPECT_EQ(t0[1], 0.0);
}

TEST(StandardScalerTest, TransformDatasetPreservesLabels) {
  Dataset d(1, {0.0, 2.0}, {3, 4});
  StandardScaler s;
  ASSERT_TRUE(s.Fit(d).ok());
  s.Transform(d);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.label(0), 3);
  EXPECT_EQ(d.label(1), 4);
  EXPECT_NEAR(d.row(0)[0], -1.0, 1e-12);
  EXPECT_NEAR(d.row(1)[0], 1.0, 1e-12);
}

}  // namespace
}  // namespace dehealth
