#include "core/reuse.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/hybrid_dbscan.hpp"
#include "data/generators.hpp"
#include "dbscan/cluster_compare.hpp"
#include "dbscan/dbscan.hpp"
#include "dbscan/minpts_sweep.hpp"
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
  EXPECT_TRUE(report.variant_clusters.empty());
  EXPECT_GT(report.table_seconds, 0.0);  // T is still built
}

// Streaming reuse fans every batch out to one consumer per minpts on the
// builder's stream threads; their union work adds up and is charged
// against the device build like the service's streaming path.
TEST(Reuse, StreamingBuildChargesTheConsumersUnionWork) {
  const auto points = data::generate_uniform(3000, 6, 2.0f, 2.0f);
  cudasim::Device dev({}, fast_options());
  auto build_model = [&](std::size_t consumers) {
    std::vector<int> minpts(consumers);
    std::iota(minpts.begin(), minpts.end(), 4);
    const ReuseReport report =
        cluster_minpts_sweep(dev, points, 0.5f, minpts, 1, {}, nullptr,
                             ClusterMode::kStreaming);
    EXPECT_TRUE(report.streamed);
    return report.modeled_table_seconds;
  };
  (void)build_model(1);  // warm the device's buffer pools
  const double one = build_model(1);
  const double eight = build_model(8);
  EXPECT_GT(eight, 3.0 * one) << "one consumer " << one << " s, eight "
                              << eight << " s";
}

// ---------------------------------------------------------------------------
// dbscan_minpts_sweep: every minpts from one pass over T
// ---------------------------------------------------------------------------

/// Table with the given rows, kept in the given order.
NeighborTable table_from_rows(const std::vector<std::vector<PointId>>& rows) {
  NeighborTable table(rows.size());
  std::vector<NeighborPair> pairs;
  for (PointId p = 0; p < rows.size(); ++p) {
    pairs.clear();
    for (const PointId q : rows[p]) pairs.push_back({p, q});
    table.append_sorted_batch(pairs);
  }
  return table;
}

/// The sweep's border rule, spelled out: the neighbor q != p of largest
/// degree, ties to the smallest id.
PointId anchor_of(const NeighborTable& table, PointId p) {
  PointId best = std::numeric_limits<PointId>::max();
  for (const PointId q : table.neighbors(p)) {
    if (q == p) continue;
    const auto dq = table.neighbor_count(q);
    if (best == std::numeric_limits<PointId>::max() ||
        dq > table.neighbor_count(best) ||
        (dq == table.neighbor_count(best) && q < best)) {
      best = q;
    }
  }
  return best;
}

/// Cores and noise bit-identical to BFS DBSCAN; every border point labeled
/// like its anchor.
void expect_sweep_rules(const NeighborTable& table, int minpts,
                        const ClusterResult& got) {
  const ClusterResult bfs = dbscan_neighbor_table(table, minpts);
  ASSERT_EQ(got.labels.size(), bfs.labels.size()) << "minpts " << minpts;
  EXPECT_EQ(got.num_clusters, bfs.num_clusters) << "minpts " << minpts;
  EXPECT_EQ(got.noise_count(), bfs.noise_count()) << "minpts " << minpts;
  for (PointId p = 0; p < table.num_points(); ++p) {
    if (table.neighbor_count(p) >= static_cast<std::uint32_t>(minpts) ||
        bfs.labels[p] == kNoise) {
      ASSERT_EQ(got.labels[p], bfs.labels[p])
          << "minpts " << minpts << " point " << p;
    } else {
      ASSERT_EQ(got.labels[p], got.labels[anchor_of(table, p)])
          << "minpts " << minpts << " border " << p;
    }
  }
}

/// Skewed data with exact duplicates (degree ties), rows in grid order.
NeighborTable sweep_table() {
  auto points = data::generate_space_weather(
      1500, 91, {.width = 10.0f, .height = 10.0f});
  for (std::size_t i = 0; i < 300; i += 3) points.push_back(points[i]);
  return input_order_table(points, 0.4f);
}

// Unsorted, with a duplicate, minpts 1 and one value above every degree.
const std::vector<int> kSweepMinpts{16, 2, 64, 16, 1, 5000, 8, 128, 4, 32};

TEST(MinptsSweep, CoresAndNoiseMatchBfsAndBordersFollowTheirAnchor) {
  const NeighborTable table = sweep_table();
  const MinptsSweep sweep = dbscan_minpts_sweep(table, kSweepMinpts, 4);
  ASSERT_EQ(sweep.results.size(), kSweepMinpts.size());
  for (std::size_t i = 0; i < kSweepMinpts.size(); ++i) {
    EXPECT_TRUE(sweep.outcomes[i].ok);
    expect_sweep_rules(table, kSweepMinpts[i], sweep.results[i]);
  }
  // The value above every degree: no cluster, all noise.
  EXPECT_EQ(sweep.results[5].num_clusters, 0);
  EXPECT_EQ(sweep.results[5].noise_count(), table.num_points());
  // minpts 1: every point is core, so the labels are BFS's outright.
  EXPECT_EQ(sweep.results[4].labels,
            dbscan_neighbor_table(table, 1).labels);
  EXPECT_EQ(sweep.results[0].labels, sweep.results[3].labels);
}

TEST(MinptsSweep, LabelsAreIdenticalForAnyThreadCount) {
  const NeighborTable table = sweep_table();
  const MinptsSweep one = dbscan_minpts_sweep(table, kSweepMinpts, 1);
  for (const unsigned threads : {2u, 4u, 16u}) {
    const MinptsSweep many =
        dbscan_minpts_sweep(table, kSweepMinpts, threads);
    EXPECT_EQ(many.edge_unions, one.edge_unions) << threads << " threads";
    for (std::size_t i = 0; i < kSweepMinpts.size(); ++i) {
      EXPECT_EQ(many.results[i].labels, one.results[i].labels)
          << threads << " threads, minpts " << kSweepMinpts[i];
      EXPECT_EQ(many.results[i].num_clusters, one.results[i].num_clusters);
    }
  }
}

TEST(MinptsSweep, OneValueEqualsItsEntryInTheFullSweep) {
  const NeighborTable table = sweep_table();
  const MinptsSweep all = dbscan_minpts_sweep(table, kSweepMinpts, 4);
  for (std::size_t i = 0; i < kSweepMinpts.size(); ++i) {
    const int m = kSweepMinpts[i];
    const MinptsSweep one =
        dbscan_minpts_sweep(table, std::span<const int>(&m, 1), 2);
    EXPECT_EQ(one.results[0].labels, all.results[i].labels) << "minpts " << m;
    EXPECT_EQ(one.results[0].num_clusters, all.results[i].num_clusters);
  }
}

TEST(MinptsSweep, UnitesEachCoreCoreEdgeOnce) {
  const NeighborTable table = sweep_table();
  const std::uint32_t lowest = 4;
  std::uint64_t directed = 0;
  for (PointId p = 0; p < table.num_points(); ++p) {
    if (table.neighbor_count(p) < lowest) continue;
    for (const PointId q : table.neighbors(p)) {
      directed += q != p && table.neighbor_count(q) >= lowest;
    }
  }
  const std::vector<int> minpts{64, 16, 4, 32};
  for (const unsigned threads : {1u, 4u}) {
    EXPECT_EQ(dbscan_minpts_sweep(table, minpts, threads).edge_unions,
              directed / 2);
  }
}

TEST(MinptsSweep, DegreeTieGoesToTheSmallestNeighborId) {
  // Two 3-cliques {0,1,2} and {4,5,6}; point 3 touches 2 and 4, which tie
  // at degree 4. Row 3 lists 4 before 2, so only the id tie-break (not
  // row order) sends it to 2's cluster.
  const NeighborTable table = table_from_rows({{0, 1, 2},
                                               {0, 1, 2},
                                               {0, 1, 2, 3},
                                               {4, 3, 2},
                                               {3, 4, 5, 6},
                                               {4, 5, 6},
                                               {4, 5, 6}});
  const std::vector<int> minpts{4, 3};
  const MinptsSweep sweep = dbscan_minpts_sweep(table, minpts, 2);
  // minpts 4: cores 2 and 4 are separate clusters; everything else borders.
  EXPECT_EQ(sweep.results[0].num_clusters, 2);
  EXPECT_EQ(sweep.results[0].labels,
            (std::vector<std::int32_t>{0, 0, 0, 0, 1, 1, 1}));
  // minpts 3: every point is core and the chain joins both cliques.
  EXPECT_EQ(sweep.results[1].num_clusters, 1);
  for (std::size_t i = 0; i < minpts.size(); ++i) {
    expect_sweep_rules(table, minpts[i], sweep.results[i]);
  }
  // With minpts 4 alone, point 3 is core at no level: its row is never
  // read and cores 2 and 4 offer themselves as its anchor instead.
  const std::vector<int> four{4};
  for (const unsigned threads : {1u, 2u, 4u}) {
    EXPECT_EQ(dbscan_minpts_sweep(table, four, threads).results[0].labels,
              sweep.results[0].labels)
        << threads << " threads";
  }
}

TEST(MinptsSweep, TinyInputs) {
  const std::vector<int> minpts{1, 2};
  const MinptsSweep empty = dbscan_minpts_sweep(NeighborTable(0), minpts, 4);
  for (const ClusterResult& r : empty.results) {
    EXPECT_TRUE(r.labels.empty());
    EXPECT_EQ(r.num_clusters, 0);
  }
  const MinptsSweep single =
      dbscan_minpts_sweep(table_from_rows({{0}}), minpts, 16);
  EXPECT_EQ(single.results[0].labels, std::vector<std::int32_t>{0});
  EXPECT_EQ(single.results[0].num_clusters, 1);
  EXPECT_EQ(single.results[1].labels, std::vector<std::int32_t>{kNoise});
  EXPECT_EQ(single.results[1].num_clusters, 0);
}

TEST(MinptsSweep, ValuesAboveEveryDegreeLeaveAllNoise) {
  const NeighborTable table = sweep_table();
  const std::vector<int> minpts{7000, 5000};
  for (const unsigned threads : {1u, 4u, 16u}) {
    const MinptsSweep sweep = dbscan_minpts_sweep(table, minpts, threads);
    for (const ClusterResult& r : sweep.results) {
      EXPECT_EQ(r.num_clusters, 0);
      EXPECT_EQ(r.labels,
                std::vector<std::int32_t>(table.num_points(), kNoise));
    }
    EXPECT_EQ(sweep.edge_unions, 0u);
  }
}

TEST(MinptsSweep, InvalidValueIsRecordedAndSiblingsKept) {
  const NeighborTable table = sweep_table();
  const std::vector<int> minpts{8, 0, 32};
  const MinptsSweep sweep = dbscan_minpts_sweep(table, minpts, 4);
  EXPECT_TRUE(sweep.outcomes[0].ok);
  EXPECT_FALSE(sweep.outcomes[1].ok);
  EXPECT_FALSE(sweep.outcomes[1].error.empty());
  EXPECT_TRUE(sweep.results[1].labels.empty());
  EXPECT_TRUE(sweep.outcomes[2].ok);
  expect_sweep_rules(table, 8, sweep.results[0]);
  expect_sweep_rules(table, 32, sweep.results[2]);

  const std::vector<int> all_bad{0, -3};
  EXPECT_THROW((void)dbscan_minpts_sweep(table, all_bad, 4),
               std::invalid_argument);
}

TEST(MinptsSweep, OriginalIdsWriteLabelsInInputOrder) {
  const NeighborTable table = sweep_table();
  std::vector<PointId> ids(table.num_points());
  std::iota(ids.rbegin(), ids.rend(), PointId{0});  // reversal
  const std::vector<int> minpts{4, 16};
  const MinptsSweep plain = dbscan_minpts_sweep(table, minpts, 2);
  const MinptsSweep mapped = dbscan_minpts_sweep(table, minpts, 2, ids);
  for (std::size_t i = 0; i < minpts.size(); ++i) {
    for (PointId p = 0; p < table.num_points(); ++p) {
      ASSERT_EQ(mapped.results[i].labels[ids[p]], plain.results[i].labels[p]);
    }
    EXPECT_EQ(mapped.results[i].noise_count(),
              plain.results[i].noise_count());
  }
  EXPECT_THROW((void)dbscan_minpts_sweep(
                   table, minpts, 2, std::span<const PointId>(ids).first(3)),
               std::invalid_argument);
}

}  // namespace
}  // namespace hdbscan
