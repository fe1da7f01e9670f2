// The headline correctness property: HYBRID-DBSCAN (GPU neighbor table +
// host DBSCAN over T) must produce clusterings equivalent to the reference
// sequential R-tree DBSCAN, across datasets, eps, and minpts.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/hybrid_dbscan.hpp"
#include "data/datasets.hpp"
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

/// Builds an input-order neighbor table (oracle for the comparator).
NeighborTable input_order_table(std::span<const Point2> points, float eps) {
  const GridIndex<Point2> index = build_grid_index(points, eps);
  NeighborTable table(points.size());
  std::vector<PointId> neighbors;
  std::vector<NeighborPair> pairs;
  for (PointId i = 0; i < points.size(); ++i) {
    // Query with the original point; translate ids back to input order.
    grid_query(index, points[i], eps, neighbors);
    pairs.clear();
    for (const PointId v : neighbors) {
      pairs.push_back({i, index.original_ids[v]});
    }
    table.append_sorted_batch(pairs);
  }
  return table;
}

class HybridEquivalence
    : public ::testing::TestWithParam<std::tuple<int, float, int>> {};

TEST_P(HybridEquivalence, MatchesReferenceImplementation) {
  const auto [family, eps, minpts] = GetParam();
  const std::size_t n = 3000;
  const std::vector<Point2> points =
      family == 0   ? data::generate_uniform(n, 61, 10.0f, 10.0f)
      : family == 1 ? data::generate_space_weather(
                          n, 62, {.width = 10.0f, .height = 10.0f})
                    : data::generate_sky_survey(
                          n, 63, {.width = 10.0f, .height = 10.0f});

  cudasim::Device dev({}, fast_options());
  const ClusterResult hybrid = hybrid_dbscan(dev, points, eps, minpts);
  const ClusterResult reference = dbscan_rtree(points, eps, minpts);

  const NeighborTable oracle = input_order_table(points, eps);
  const auto outcome =
      compare_clusterings(hybrid, reference, oracle, minpts);
  EXPECT_TRUE(outcome.equivalent)
      << "family=" << family << " eps=" << eps << " minpts=" << minpts
      << ": " << outcome.diagnostic;
  EXPECT_EQ(hybrid.num_clusters, reference.num_clusters);
  EXPECT_EQ(hybrid.noise_count(), reference.noise_count());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HybridEquivalence,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0.15f, 0.4f, 0.8f),
                       ::testing::Values(2, 4, 16)));

TEST(HybridDbscan, TimingsArePopulated) {
  const auto points = data::make_dataset("SDSS1", 5000);
  cudasim::Device dev({}, fast_options());
  HybridTimings timings;
  hybrid_dbscan(dev, points, 0.3f, 4, &timings);
  EXPECT_GT(timings.index_seconds, 0.0);
  EXPECT_GT(timings.gpu_table_seconds, 0.0);
  EXPECT_GT(timings.dbscan_seconds, 0.0);
  EXPECT_GE(timings.total_seconds, timings.index_seconds +
                                       timings.gpu_table_seconds +
                                       timings.dbscan_seconds - 1e-6);
  EXPECT_GT(timings.build_report.total_pairs, 0u);
}

TEST(HybridDbscan, LabelsAreInInputOrder) {
  // Two clumps placed so the grid reorders them; labels must still line up
  // with the input ordering.
  std::vector<Point2> points;
  Xoshiro256 rng(64);
  for (int i = 0; i < 50; ++i) {  // clump B first in input, high coords
    points.push_back({9.0f + rng.uniform(0.0f, 0.2f),
                      9.0f + rng.uniform(0.0f, 0.2f)});
  }
  for (int i = 0; i < 50; ++i) {
    points.push_back({rng.uniform(0.0f, 0.2f), rng.uniform(0.0f, 0.2f)});
  }
  cudasim::Device dev({}, fast_options());
  const ClusterResult r = hybrid_dbscan(dev, points, 0.3f, 4);
  EXPECT_EQ(r.num_clusters, 2);
  for (int i = 1; i < 50; ++i) {
    EXPECT_EQ(r.labels[i], r.labels[0]);
    EXPECT_EQ(r.labels[50 + i], r.labels[50]);
  }
  EXPECT_NE(r.labels[0], r.labels[50]);
}

TEST(HybridDbscan, ReusedTableMatchesFreshRunsAcrossMinpts) {
  // Fix eps, sweep minpts off one table (S3 semantics): every result must
  // equal a fresh hybrid run with the same parameters.
  const auto points = data::generate_space_weather(
      2000, 65, {.width = 10.0f, .height = 10.0f});
  const float eps = 0.4f;
  cudasim::Device dev({}, fast_options());

  const GridIndex<Point2> index = build_grid_index(points, eps);
  NeighborTableBuilder builder(dev);
  const NeighborTable table = builder.build(index, eps);
  const NeighborTable oracle = input_order_table(points, eps);

  for (const int minpts : {2, 4, 8, 32, 128}) {
    const ClusterResult from_reuse =
        unmap_labels(dbscan_neighbor_table(table, minpts), index.original_ids);
    const ClusterResult fresh = hybrid_dbscan(dev, points, eps, minpts);
    const auto outcome =
        compare_clusterings(from_reuse, fresh, oracle, minpts);
    EXPECT_TRUE(outcome.equivalent) << "minpts=" << minpts << ": "
                                    << outcome.diagnostic;
  }
}

}  // namespace
}  // namespace hdbscan
