#include "eval/metrics.h"

#include <cmath>
#include <gtest/gtest.h>

namespace start::eval {
namespace {

TEST(RegressionMetricsTest, PerfectPrediction) {
  const auto m = ComputeRegressionMetrics({1, 2, 3}, {1, 2, 3});
  EXPECT_DOUBLE_EQ(m.mae, 0.0);
  EXPECT_DOUBLE_EQ(m.mape, 0.0);
  EXPECT_DOUBLE_EQ(m.rmse, 0.0);
}

TEST(RegressionMetricsTest, KnownErrors) {
  const auto m = ComputeRegressionMetrics({10, 20}, {12, 16});
  EXPECT_DOUBLE_EQ(m.mae, 3.0);                     // (2 + 4) / 2
  EXPECT_DOUBLE_EQ(m.mape, 100.0 * (0.2 + 0.2) / 2.0);
  EXPECT_DOUBLE_EQ(m.rmse, std::sqrt((4.0 + 16.0) / 2.0));
}

TEST(RegressionMetricsTest, MapeSkipsZeroTruth) {
  const auto m = ComputeRegressionMetrics({0, 10}, {1, 11});
  EXPECT_DOUBLE_EQ(m.mape, 10.0);  // only the second point counts
}

TEST(ClassificationMetricsTest, AccuracyAndMicroF1) {
  const std::vector<int64_t> y = {0, 1, 1, 2};
  const std::vector<int64_t> p = {0, 1, 2, 2};
  EXPECT_DOUBLE_EQ(Accuracy(y, p), 0.75);
  EXPECT_DOUBLE_EQ(MicroF1(y, p), 0.75);
}

TEST(ClassificationMetricsTest, BinaryF1KnownCase) {
  // TP=2, FP=1, FN=1 -> precision 2/3, recall 2/3, F1 = 2/3.
  const std::vector<int64_t> y = {1, 1, 1, 0, 0};
  const std::vector<int64_t> p = {1, 1, 0, 1, 0};
  EXPECT_NEAR(BinaryF1(y, p), 2.0 / 3.0, 1e-12);
}

TEST(ClassificationMetricsTest, F1ZeroWhenNoTruePositives) {
  EXPECT_DOUBLE_EQ(BinaryF1({1, 1}, {0, 0}), 0.0);
}

TEST(ClassificationMetricsTest, AucPerfectAndReversed) {
  const std::vector<int64_t> y = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(BinaryAuc(y, {0.1, 0.2, 0.8, 0.9}), 1.0);
  EXPECT_DOUBLE_EQ(BinaryAuc(y, {0.9, 0.8, 0.2, 0.1}), 0.0);
}

TEST(ClassificationMetricsTest, AucHalfForUninformativeScores) {
  const std::vector<int64_t> y = {0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(BinaryAuc(y, {0.5, 0.5, 0.5, 0.5}), 0.5);
}

TEST(ClassificationMetricsTest, AucHandlesTies) {
  const std::vector<int64_t> y = {0, 0, 1, 1};
  // One positive tied with one negative at 0.5.
  const double auc = BinaryAuc(y, {0.1, 0.5, 0.5, 0.9});
  EXPECT_NEAR(auc, 0.875, 1e-9);
}

TEST(ClassificationMetricsTest, MacroF1AveragesOverClasses) {
  // Class 0 perfectly predicted, class 1 never predicted, class 2 absent.
  const std::vector<int64_t> y = {0, 0, 1, 1};
  const std::vector<int64_t> p = {0, 0, 0, 0};
  // F1(class0): precision 0.5 recall 1 -> 2/3. F1(1)=0, F1(2)=0.
  EXPECT_NEAR(MacroF1(y, p, 3), (2.0 / 3.0) / 3.0, 1e-12);
}

TEST(ClassificationMetricsTest, RecallAtKBoundaries) {
  const std::vector<int64_t> y = {0, 1};
  const std::vector<double> scores = {
      0.9, 0.05, 0.05,   // truth 0 ranked 1st
      0.5, 0.3, 0.2,     // truth 1 ranked 2nd
  };
  EXPECT_DOUBLE_EQ(RecallAtK(y, scores, 3, 1), 0.5);
  EXPECT_DOUBLE_EQ(RecallAtK(y, scores, 3, 2), 1.0);
}

TEST(ClassificationMetricsTest, RecallAtKRejectsOutOfRangeLabels) {
  const std::vector<double> scores = {0.9, 0.05, 0.05};
  EXPECT_DEATH(RecallAtK({3}, scores, 3, 1), "outside");
  EXPECT_DEATH(RecallAtK({-1}, scores, 3, 1), "outside");
}

}  // namespace
}  // namespace start::eval
