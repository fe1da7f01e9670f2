// Tests of the benchmark's own arithmetic (stats.hpp). Expected quartiles
// are the values Python's statistics.quantiles(v, n=4) gives.
#include <gtest/gtest.h>

#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({5, 1, 4, 2, 3}), 3.0);
  EXPECT_DOUBLE_EQ(median({0.5, 0.25, 0.75, 1.0}), 0.625);
  EXPECT_DOUBLE_EQ(median({7}), 7.0);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Quartiles, MatchPythonExclusiveMethod) {
  auto [q1, q3] = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q1, 2.75);
  EXPECT_DOUBLE_EQ(q3, 8.25);
  std::tie(q1, q3) = quartiles({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(q1, 1.5);
  EXPECT_DOUBLE_EQ(q3, 4.5);
  std::tie(q1, q3) = quartiles({0.5, 0.25, 0.75, 1.0});
  EXPECT_DOUBLE_EQ(q1, 0.3125);
  EXPECT_DOUBLE_EQ(q3, 0.9375);
}

TEST(Quartiles, TwoSamplesExtrapolateLikePython) {
  const auto [q1, q3] = quartiles({3.0, 1.0});
  EXPECT_DOUBLE_EQ(q1, 0.5);
  EXPECT_DOUBLE_EQ(q3, 3.5);
  EXPECT_THROW(quartiles({1.0}), std::invalid_argument);
}

TEST(Tail, HighestPercentileWithTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Tail t = tail(v);
  EXPECT_DOUBLE_EQ(t.value, 90.0);  // 10 samples (91..100) lie beyond it
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);

  std::vector<double> v25;
  for (int i = 25; i >= 1; --i) v25.push_back(i);  // order must not matter
  const Tail t25 = tail(v25);
  EXPECT_DOUBLE_EQ(t25.value, 15.0);
  EXPECT_DOUBLE_EQ(t25.percentile, 60.0);
}

TEST(Tail, TooFewSamplesFallBackToMaximum) {
  const Tail t = tail({3, 9, 1});
  EXPECT_DOUBLE_EQ(t.value, 9.0);
  EXPECT_DOUBLE_EQ(t.percentile, 100.0);
  const Tail eleven = tail({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  EXPECT_DOUBLE_EQ(eleven.value, 1.0);
}

TEST(SelfTime, DisjointChildren) {
  EXPECT_DOUBLE_EQ(self_seconds({0, 10}, {{1, 3}, {5, 6}}), 7.0);
  EXPECT_DOUBLE_EQ(self_seconds({0, 10}, {}), 10.0);
}

TEST(SelfTime, OverlappingConsumersAreSubtractedOnce) {
  // A pipeline call: the producer builds tables in [0, 6] while three
  // consumers cluster in overlapping windows; the call ends at 10.
  const std::vector<Interval> children = {
      {0, 6}, {2, 7}, {3, 8}, {5, 8.5}};
  EXPECT_DOUBLE_EQ(self_seconds({0, 10}, children), 1.5);
  EXPECT_DOUBLE_EQ(covered_seconds(children, {0, 10}), 8.5);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  EXPECT_DOUBLE_EQ(self_seconds({2, 6}, {{0, 3}, {5, 9}}), 2.0);
  EXPECT_DOUBLE_EQ(self_seconds({2, 6}, {{7, 9}}), 4.0);
  EXPECT_DOUBLE_EQ(self_seconds({0, 4}, {{1, 2}, {1, 2}}), 3.0);
}

}  // namespace
}  // namespace perfbench
