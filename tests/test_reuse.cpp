#include "core/reuse.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/hybrid_dbscan.hpp"
#include "data/generators.hpp"
#include "dbscan/cluster_compare.hpp"
#include "dbscan/dbscan.hpp"
#include "index/grid_index.hpp"

namespace hdbscan {
namespace {

cudasim::SimulationOptions fast_options() {
  cudasim::SimulationOptions opt;
  opt.throttle_transfers = false;
  opt.throttle_pinned_alloc = false;
  opt.executor_threads = 2;
  return opt;
}

NeighborTable input_order_table(std::span<const Point2> points, float eps) {
  const GridIndex<Point2> index = build_grid_index(points, eps);
  NeighborTable table(points.size());
  std::vector<PointId> neighbors;
  std::vector<NeighborPair> pairs;
  for (PointId i = 0; i < points.size(); ++i) {
    grid_query(index, points[i], eps, neighbors);
    pairs.clear();
    for (const PointId v : neighbors) {
      pairs.push_back({i, index.original_ids[v]});
    }
    table.append_sorted_batch(pairs);
  }
  return table;
}

class ReuseThreads : public ::testing::TestWithParam<unsigned> {};

TEST_P(ReuseThreads, SweepMatchesIndividualRunsForAnyThreadCount) {
  const unsigned threads = GetParam();
  const auto points = data::generate_space_weather(
      2000, 81, {.width = 10.0f, .height = 10.0f});
  const float eps = 0.4f;
  const std::vector<int> minpts{2, 4, 8, 16, 32, 64, 128, 256};
  cudasim::Device dev({}, fast_options());

  std::vector<ClusterResult> results;
  const ReuseReport report = cluster_minpts_sweep(
      dev, points, eps, minpts, threads, {}, &results);

  ASSERT_EQ(results.size(), minpts.size());
  const NeighborTable oracle = input_order_table(points, eps);
  for (std::size_t i = 0; i < minpts.size(); ++i) {
    const ClusterResult fresh = hybrid_dbscan(dev, points, eps, minpts[i]);
    const auto outcome =
        compare_clusterings(results[i], fresh, oracle, minpts[i]);
    EXPECT_TRUE(outcome.equivalent)
        << "threads=" << threads << " minpts=" << minpts[i] << ": "
        << outcome.diagnostic;
    EXPECT_EQ(results[i].num_clusters, report.variant_clusters[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ReuseThreads,
                         ::testing::Values(1u, 2u, 4u, 16u));

TEST(Reuse, ReportFieldsPopulated) {
  const auto points = data::generate_sky_survey(
      1500, 82, {.width = 8.0f, .height = 8.0f});
  const std::vector<int> minpts{4, 8, 16};
  cudasim::Device dev({}, fast_options());
  const ReuseReport report =
      cluster_minpts_sweep(dev, points, 0.35f, minpts, 2);
  EXPECT_EQ(report.eps, 0.35f);
  EXPECT_GT(report.table_seconds, 0.0);
  EXPECT_GT(report.dbscan_wall_seconds, 0.0);
  EXPECT_GE(report.total_seconds,
            report.table_seconds + report.dbscan_wall_seconds - 1e-6);
  ASSERT_EQ(report.variant_seconds.size(), 3u);
  for (const double s : report.variant_seconds) EXPECT_GT(s, 0.0);
}

TEST(Reuse, MoreNoiseWithHigherMinpts) {
  const auto points = data::generate_sky_survey(
      2500, 83, {.width = 8.0f, .height = 8.0f});
  const std::vector<int> minpts{2, 300};
  cudasim::Device dev({}, fast_options());
  std::vector<ClusterResult> results;
  cluster_minpts_sweep(dev, points, 0.3f, minpts, 2, {}, &results);
  EXPECT_LE(results[0].noise_count(), results[1].noise_count());
}

TEST(Reuse, EmptyMinptsListIsNoop) {
  const auto points = data::generate_uniform(500, 84, 5.0f, 5.0f);
  cudasim::Device dev({}, fast_options());
  const ReuseReport report = cluster_minpts_sweep(dev, points, 0.3f, {}, 4);
  EXPECT_TRUE(report.variant_seconds.empty());
  EXPECT_GT(report.table_seconds, 0.0);  // T is still built
}

}  // namespace
}  // namespace hdbscan
