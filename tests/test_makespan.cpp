#include "common/makespan.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace hdbscan {
namespace {

TEST(Makespan, SingleWorkerIsSum) {
  const std::vector<double> d{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(makespan_seconds(d, 1), 6.0);
}

TEST(Makespan, EnoughWorkersIsMax) {
  const std::vector<double> d{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(makespan_seconds(d, 3), 3.0);
  EXPECT_DOUBLE_EQ(makespan_seconds(d, 10), 3.0);
}

TEST(Makespan, GreedyListSchedule) {
  // Two workers, FIFO: w1 gets 4, w2 gets 3; then 2 -> w2 (free at 3),
  // then 1 -> w1 (free at 4). Finish times: w1 = 5, w2 = 5.
  const std::vector<double> d{4.0, 3.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(makespan_seconds(d, 2), 5.0);
}

TEST(Makespan, EmptyTaskListIsZero) {
  EXPECT_DOUBLE_EQ(makespan_seconds({}, 4), 0.0);
}

TEST(Makespan, ZeroWorkersThrows) {
  const std::vector<double> d{1.0};
  EXPECT_THROW((void)makespan_seconds(d, 0), std::invalid_argument);
}

TEST(Makespan, MonotoneInWorkers) {
  std::vector<double> d;
  for (int i = 0; i < 40; ++i) d.push_back(0.1 * (i % 7 + 1));
  double prev = makespan_seconds(d, 1);
  for (std::size_t k = 2; k <= 16; ++k) {
    const double m = makespan_seconds(d, k);
    EXPECT_LE(m, prev + 1e-12);
    prev = m;
  }
}

TEST(PipelineMakespan, ProducerBound) {
  // Production dominates: consumers always wait on the producer.
  const std::vector<double> produce{1.0, 1.0, 1.0};
  const std::vector<double> consume{0.1, 0.1, 0.1};
  EXPECT_DOUBLE_EQ(pipeline_makespan_seconds(produce, consume, 2), 3.1);
}

TEST(PipelineMakespan, ConsumerBoundWithOneConsumer) {
  const std::vector<double> produce{0.1, 0.1, 0.1};
  const std::vector<double> consume{1.0, 1.0, 1.0};
  // Consumer start times: max(0.1, 0)=0.1, then 1.1, then 2.1 -> ends 3.1.
  EXPECT_DOUBLE_EQ(pipeline_makespan_seconds(produce, consume, 1), 3.1);
}

TEST(PipelineMakespan, ExtraConsumersOverlap) {
  const std::vector<double> produce{0.1, 0.1, 0.1};
  const std::vector<double> consume{1.0, 1.0, 1.0};
  // 3 consumers: items start at 0.1, 0.2, 0.3 and overlap fully -> 1.3.
  EXPECT_DOUBLE_EQ(pipeline_makespan_seconds(produce, consume, 3), 1.3);
}

TEST(PipelineMakespan, MismatchedLengthsThrow) {
  const std::vector<double> a{1.0};
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW((void)pipeline_makespan_seconds(a, b, 1), std::invalid_argument);
}

TEST(PipelineMakespan, ZeroConsumersThrows) {
  const std::vector<double> a{1.0};
  EXPECT_THROW((void)pipeline_makespan_seconds(a, a, 0), std::invalid_argument);
}

TEST(IntervalUnion, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(interval_union_seconds({}), 0.0);
}

TEST(IntervalUnion, SingleInterval) {
  const std::vector<Interval> v{{1.0, 3.5}};
  EXPECT_DOUBLE_EQ(interval_union_seconds(v), 2.5);
}

TEST(IntervalUnion, DisjointIntervalsSum) {
  const std::vector<Interval> v{{0.0, 1.0}, {2.0, 3.0}, {10.0, 10.5}};
  EXPECT_DOUBLE_EQ(interval_union_seconds(v), 2.5);
}

TEST(IntervalUnion, OverlapCountedOnce) {
  // [0,2) and [1,3) overlap on [1,2): the union is [0,3).
  const std::vector<Interval> v{{0.0, 2.0}, {1.0, 3.0}};
  EXPECT_DOUBLE_EQ(interval_union_seconds(v), 3.0);
}

TEST(IntervalUnion, NestedIntervalAddsNothing) {
  // A span fully inside another (a kernel inside its batch) must not
  // inflate busy time.
  const std::vector<Interval> v{{0.0, 10.0}, {2.0, 4.0}, {5.0, 6.0}};
  EXPECT_DOUBLE_EQ(interval_union_seconds(v), 10.0);
}

TEST(IntervalUnion, TouchingEndpointsMerge) {
  // Half-open intervals: [0,1) and [1,2) tile [0,2) with no gap.
  const std::vector<Interval> v{{1.0, 2.0}, {0.0, 1.0}};
  EXPECT_DOUBLE_EQ(interval_union_seconds(v), 2.0);
}

TEST(IntervalUnion, UnsortedInputHandled) {
  const std::vector<Interval> v{{5.0, 7.0}, {0.0, 1.0}, {6.0, 9.0}};
  EXPECT_DOUBLE_EQ(interval_union_seconds(v), 5.0);
}

TEST(IntervalUnion, DegenerateIntervalsIgnored) {
  // Zero-length and inverted intervals contribute nothing.
  const std::vector<Interval> v{{1.0, 1.0}, {3.0, 2.0}, {4.0, 5.0}};
  EXPECT_DOUBLE_EQ(interval_union_seconds(v), 1.0);
}

}  // namespace
}  // namespace hdbscan
