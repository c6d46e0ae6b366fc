// Unit tests for the fairness metrics (Section 4 definitions).
#include <gtest/gtest.h>

#include "stats/metrics.hpp"

namespace tcppr::stats {
namespace {

TEST(Metrics, MeanAndVariance) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(variance({2, 2, 2}), 0.0);
  EXPECT_DOUBLE_EQ(variance({1, 3}), 1.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Metrics, NormalizedThroughputAveragesToOne) {
  const auto norm = normalized_throughput({10, 20, 30, 40});
  EXPECT_DOUBLE_EQ(mean(norm), 1.0);
  EXPECT_DOUBLE_EQ(norm[0], 0.4);
  EXPECT_DOUBLE_EQ(norm[3], 1.6);
}

TEST(Metrics, NormalizedThroughputEqualSharesAllOne) {
  for (const double v : normalized_throughput({5, 5, 5})) {
    EXPECT_DOUBLE_EQ(v, 1.0);
  }
}

TEST(Metrics, NormalizedThroughputZeroInput) {
  const auto norm = normalized_throughput({0, 0});
  EXPECT_DOUBLE_EQ(norm[0], 0.0);
}

TEST(Metrics, MeanOfSubset) {
  EXPECT_DOUBLE_EQ(mean_of({1, 2, 3, 4}, {0, 3}), 2.5);
  EXPECT_DOUBLE_EQ(mean_of({1, 2}, {}), 0.0);
}

TEST(Metrics, CoefficientOfVariation) {
  EXPECT_DOUBLE_EQ(coefficient_of_variation({5, 5, 5}), 0.0);
  // {1,3}: mean 2, std 1 -> CoV 0.5.
  EXPECT_DOUBLE_EQ(coefficient_of_variation({1, 3}), 0.5);
  EXPECT_DOUBLE_EQ(coefficient_of_variation({}), 0.0);
}

TEST(Metrics, JainIndex) {
  EXPECT_DOUBLE_EQ(jain_index({1, 1, 1, 1}), 1.0);
  // One flow hogging everything among n flows -> 1/n.
  EXPECT_DOUBLE_EQ(jain_index({1, 0, 0, 0}), 0.25);
  EXPECT_DOUBLE_EQ(jain_index({}), 0.0);
}

}  // namespace
}  // namespace tcppr::stats
