#include "dbscan/dbscan_parallel.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "data/generators.hpp"
#include "dbscan/cluster_compare.hpp"
#include "dbscan/dbscan.hpp"
#include "index/grid_index.hpp"

namespace hdbscan {
namespace {

struct Fixture {
  explicit Fixture(int family, float eps_in, int minpts_in,
                   std::size_t n = 3000) {
    points = family == 0
                 ? data::generate_sky_survey(n, 91,
                                             {.width = 10.0f, .height = 10.0f})
                 : data::generate_space_weather(
                       n, 92, {.width = 10.0f, .height = 10.0f});
    eps = eps_in;
    minpts = minpts_in;
    index = build_grid_index(points, eps);
    table = build_neighbor_table_host(index, eps);
  }
  std::vector<Point2> points;
  float eps;
  int minpts;
  GridIndex<Point2> index;
  NeighborTable table;
};

class ParallelDbscanSweep
    : public ::testing::TestWithParam<std::tuple<int, float, int, unsigned>> {
};

TEST_P(ParallelDbscanSweep, EquivalentToSequential) {
  const auto [family, eps, minpts, threads] = GetParam();
  const Fixture f(family, eps, minpts);
  const ClusterResult sequential = dbscan_neighbor_table(f.table, f.minpts);
  const ClusterResult parallel =
      dbscan_parallel(f.table, f.minpts, threads);
  const auto outcome =
      compare_clusterings(sequential, parallel, f.table, f.minpts);
  EXPECT_TRUE(outcome.equivalent) << outcome.diagnostic;
  EXPECT_EQ(sequential.num_clusters, parallel.num_clusters);
  EXPECT_EQ(sequential.noise_count(), parallel.noise_count());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelDbscanSweep,
    ::testing::Combine(::testing::Values(0, 1), ::testing::Values(0.3f, 0.6f),
                       ::testing::Values(4, 20),
                       ::testing::Values(1u, 4u, 16u)));

TEST(ParallelDbscan, DeterministicAcrossThreadCounts) {
  const Fixture f(1, 0.4f, 6);
  const ClusterResult one = dbscan_parallel(f.table, f.minpts, 1);
  for (const unsigned threads : {2u, 3u, 8u, 32u}) {
    const ClusterResult many = dbscan_parallel(f.table, f.minpts, threads);
    // Bitwise identical: the smallest-root border rule and id-ordered
    // renumbering remove all scheduling nondeterminism.
    EXPECT_EQ(one.labels, many.labels) << threads << " threads";
    EXPECT_EQ(one.num_clusters, many.num_clusters);
  }
}

TEST(ParallelDbscan, RepeatedRunsIdentical) {
  const Fixture f(0, 0.5f, 8);
  const ClusterResult a = dbscan_parallel(f.table, f.minpts, 8);
  const ClusterResult b = dbscan_parallel(f.table, f.minpts, 8);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(ParallelDbscan, RejectsInvalidMinpts) {
  const Fixture f(0, 0.3f, 4, 100);
  EXPECT_THROW(dbscan_parallel(f.table, 0), std::invalid_argument);
}

TEST(ParallelDbscan, AllNoiseWhenMinptsHuge) {
  const Fixture f(0, 0.2f, 4, 500);
  const ClusterResult r = dbscan_parallel(f.table, 100000, 4);
  EXPECT_EQ(r.num_clusters, 0);
  EXPECT_EQ(r.noise_count(), f.points.size());
}

}  // namespace
}  // namespace hdbscan
