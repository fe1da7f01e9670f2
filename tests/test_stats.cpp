#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace hdbscan {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Percentile, MedianOfOddCount) {
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(Percentile, Extremes) {
  std::vector<double> v{5.0, 1.0, 9.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 9.0);
}

TEST(Percentile, Interpolates) {
  // Sorted: 10, 20, 30, 40 -> p50 is between 20 and 30.
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0, 30.0, 40.0}, 0.5), 25.0);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW((void)percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, 1.5), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, -0.1), std::invalid_argument);
}

TEST(Percentile, SingleElementIsEveryQuantile) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 1.0), 7.0);
}

TEST(RunningStatsMerge, EmptyIntoEmpty) {
  RunningStats a, b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
}

TEST(RunningStatsMerge, EmptyIsIdentity) {
  RunningStats a;
  for (const double v : {1.0, 2.0, 3.0}) a.add(v);
  const RunningStats empty;

  RunningStats left = a;
  left.merge(empty);  // a ⊕ 0
  RunningStats right = empty;
  right.merge(a);  // 0 ⊕ a
  for (const RunningStats& s : {left, right}) {
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.variance(), 1.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
  }
}

TEST(RunningStatsMerge, MatchesSequentialAdd) {
  RunningStats whole, lo, hi;
  const std::vector<double> values{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (std::size_t i = 0; i < values.size(); ++i) {
    whole.add(values[i]);
    (i < 4 ? lo : hi).add(values[i]);
  }
  lo.merge(hi);
  EXPECT_EQ(lo.count(), whole.count());
  EXPECT_NEAR(lo.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(lo.variance(), whole.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(lo.min(), whole.min());
  EXPECT_DOUBLE_EQ(lo.max(), whole.max());
}

TEST(RunningStatsMerge, AssociativeAcrossShards) {
  // (a ⊕ b) ⊕ c vs a ⊕ (b ⊕ c): per-thread accumulators may fold in any
  // order.
  std::vector<RunningStats> shard(3);
  for (int i = 0; i < 300; ++i) {
    shard[static_cast<std::size_t>(i % 3)].add(0.37 * i - 21.0);
  }
  RunningStats ab = shard[0];
  ab.merge(shard[1]);
  ab.merge(shard[2]);
  RunningStats bc = shard[1];
  bc.merge(shard[2]);
  RunningStats a_bc = shard[0];
  a_bc.merge(bc);
  EXPECT_EQ(ab.count(), a_bc.count());
  EXPECT_NEAR(ab.mean(), a_bc.mean(), 1e-9);
  EXPECT_NEAR(ab.variance(), a_bc.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(ab.min(), a_bc.min());
  EXPECT_DOUBLE_EQ(ab.max(), a_bc.max());
}

TEST(Format, Seconds) {
  EXPECT_EQ(format_seconds(2.5), "2.500 s");
  EXPECT_EQ(format_seconds(0.0123), "12.300 ms");
  EXPECT_EQ(format_seconds(3.4e-5), "34.0 us");
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KiB");
  EXPECT_EQ(format_bytes(5ull << 30), "5.00 GiB");
}

TEST(Format, CountInsertsThousandsSeparators) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(1864620), "1,864,620");
  EXPECT_EQ(format_count(15228633), "15,228,633");
}

}  // namespace
}  // namespace hdbscan
