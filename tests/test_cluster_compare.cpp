#include "dbscan/cluster_compare.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "data/generators.hpp"
#include "dbscan/dbscan.hpp"
#include "index/grid_index.hpp"

namespace hdbscan {
namespace {

/// Line of 5 points spaced 1 apart, eps=1.2, minpts=3:
/// points 1..3 are core; 0 and 4 are border.
struct LineFixture {
  LineFixture() {
    for (int i = 0; i < 5; ++i) {
      points.push_back({static_cast<float>(i), 0.0f});
    }
    index = build_grid_index(points, 1.2f);
    table = build_neighbor_table_host(index, 1.2f);
    // The line is symmetric, so index order == spatial order here; map to
    // input order just in case.
    valid = dbscan_neighbor_table(table, 3);
  }
  std::vector<Point2> points;
  GridIndex<Point2> index;
  NeighborTable table;
  ClusterResult valid;
};

TEST(ValidateDbscan, AcceptsRealResult) {
  LineFixture f;
  const auto outcome = validate_dbscan_result(f.valid, f.table, 3);
  EXPECT_TRUE(outcome.equivalent) << outcome.diagnostic;
}

TEST(ValidateDbscan, RejectsCoreMarkedNoise) {
  LineFixture f;
  ClusterResult broken = f.valid;
  broken.labels[2] = kNoise;  // middle point is core
  const auto outcome = validate_dbscan_result(broken, f.table, 3);
  EXPECT_FALSE(outcome.equivalent);
}

TEST(ValidateDbscan, RejectsSplitCoreComponent) {
  LineFixture f;
  ClusterResult broken = f.valid;
  broken.num_clusters = 2;
  broken.labels[3] = 1;  // split connected cores into two clusters
  const auto outcome = validate_dbscan_result(broken, f.table, 3);
  EXPECT_FALSE(outcome.equivalent);
}

TEST(ValidateDbscan, RejectsReachableNoise) {
  LineFixture f;
  ClusterResult broken = f.valid;
  broken.labels[0] = kNoise;  // border point, reachable from core 1
  const auto outcome = validate_dbscan_result(broken, f.table, 3);
  EXPECT_FALSE(outcome.equivalent);
}

TEST(ValidateDbscan, RejectsMergedComponents) {
  // Two separated triples: cores in distinct components.
  std::vector<Point2> points;
  for (int i = 0; i < 3; ++i) points.push_back({static_cast<float>(i) * 0.1f, 0});
  for (int i = 0; i < 3; ++i) points.push_back({10.0f + static_cast<float>(i) * 0.1f, 0});
  const GridIndex<Point2> index = build_grid_index(points, 0.5f);
  const NeighborTable table = build_neighbor_table_host(index, 0.5f);
  ClusterResult good = dbscan_neighbor_table(table, 3);
  ASSERT_EQ(good.num_clusters, 2);
  ClusterResult merged = good;
  for (auto& l : merged.labels) l = 0;  // claim one big cluster
  merged.num_clusters = 1;
  const auto outcome = validate_dbscan_result(merged, table, 3);
  EXPECT_FALSE(outcome.equivalent);
}

TEST(ValidateDbscan, RejectsUnvisitedPoints) {
  LineFixture f;
  ClusterResult broken = f.valid;
  broken.labels[4] = kUnvisited;
  const auto outcome = validate_dbscan_result(broken, f.table, 3);
  EXPECT_FALSE(outcome.equivalent);
}

TEST(CompareClusterings, IdenticalResultsAreEquivalent) {
  LineFixture f;
  const auto outcome = compare_clusterings(f.valid, f.valid, f.table, 3);
  EXPECT_TRUE(outcome.equivalent) << outcome.diagnostic;
}

TEST(CompareClusterings, LabelPermutationIsEquivalent) {
  // Two well-separated clusters; swap the ids.
  std::vector<Point2> points;
  for (int i = 0; i < 4; ++i) points.push_back({static_cast<float>(i) * 0.1f, 0});
  for (int i = 0; i < 4; ++i) points.push_back({10.0f + static_cast<float>(i) * 0.1f, 0});
  const GridIndex<Point2> index = build_grid_index(points, 0.5f);
  const NeighborTable table = build_neighbor_table_host(index, 0.5f);
  ClusterResult a = dbscan_neighbor_table(table, 3);
  ASSERT_EQ(a.num_clusters, 2);
  ClusterResult b = a;
  for (auto& l : b.labels) {
    if (l >= 0) l = 1 - l;
  }
  const auto outcome = compare_clusterings(a, b, table, 3);
  EXPECT_TRUE(outcome.equivalent) << outcome.diagnostic;
}

TEST(CompareClusterings, BorderPointMayJoinEitherAdjacentCluster) {
  // Two core chains with one border point within eps of exactly one core
  // of each: classic visit-order ambiguity. eps = 1.0, minpts = 4; the
  // border at x = 1 sees only {itself, chain end at 0, chain end at 2}.
  std::vector<Point2> points{{1.0f, 0}};
  for (int i = 0; i < 5; ++i) {
    points.push_back({-0.1f * static_cast<float>(i), 0.0f});
    points.push_back({2.0f + 0.1f * static_cast<float>(i), 0.0f});
  }
  const GridIndex<Point2> index = build_grid_index(points, 1.0f);
  const NeighborTable table = build_neighbor_table_host(index, 1.0f);
  ClusterResult a = dbscan_neighbor_table(table, 4);
  ASSERT_EQ(a.num_clusters, 2);
  // Find the border point (x = 1.0) in index order.
  PointId border = 0;
  for (PointId i = 0; i < index.size(); ++i) {
    if (index.points[i].x == 1.0f) border = i;
  }
  ASSERT_GE(a.labels[border], 0);
  ClusterResult b = a;
  b.labels[border] = 1 - a.labels[border];  // the other adjacent cluster
  const auto outcome = compare_clusterings(a, b, table, 4);
  EXPECT_TRUE(outcome.equivalent) << outcome.diagnostic;
}

TEST(CompareClusterings, DetectsNoiseDisagreement) {
  LineFixture f;
  ClusterResult b = f.valid;
  // Claim border 0 is noise in one result only -> must be rejected since
  // border/noise status is deterministic.
  b.labels[0] = kNoise;
  const auto outcome = compare_clusterings(f.valid, b, f.table, 3);
  EXPECT_FALSE(outcome.equivalent);
}

TEST(CompareClusterings, DetectsSizeMismatch) {
  LineFixture f;
  ClusterResult b = f.valid;
  b.labels.pop_back();
  const auto outcome = compare_clusterings(f.valid, b, f.table, 3);
  EXPECT_FALSE(outcome.equivalent);
}

TEST(CompareClusterings, RealRunsAcrossSearchOrdersAgree) {
  // DBSCAN over the grid index (index order) vs over a reversed-input
  // R-tree ordering: equivalent after mapping to a common order.
  const auto points = data::generate_gaussian_blobs(800, 31, 6, 0.25f, 12.0f,
                                                    12.0f, 0.1);
  const float eps = 0.5f;
  const int minpts = 4;
  const GridIndex<Point2> index = build_grid_index(points, eps);
  const NeighborTable table = build_neighbor_table_host(index, eps);
  const ClusterResult a = dbscan_neighbor_table(table, minpts);

  // Reference run in input order, mapped into index order.
  const ClusterResult ref = dbscan_rtree(points, eps, minpts);
  ClusterResult ref_indexed;
  ref_indexed.num_clusters = ref.num_clusters;
  ref_indexed.labels.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    ref_indexed.labels[i] = ref.labels[index.original_ids[i]];
  }
  const auto outcome = compare_clusterings(a, ref_indexed, table, minpts);
  EXPECT_TRUE(outcome.equivalent) << outcome.diagnostic;
}

// ---------------------------------------------------------------------------
// rand_index — the quality metric of the approximate clustering modes
// ---------------------------------------------------------------------------

TEST(RandIndex, EmptyAndSingletonInputsArePerfectAgreement) {
  EXPECT_DOUBLE_EQ(rand_index(std::vector<std::int32_t>{},
                              std::vector<std::int32_t>{}),
                   1.0);
  EXPECT_DOUBLE_EQ(rand_index(std::vector<std::int32_t>{0},
                              std::vector<std::int32_t>{kNoise}),
                   1.0);  // no pairs to disagree on
}

TEST(RandIndex, SizeMismatchThrows) {
  const std::vector<std::int32_t> a{0, 0};
  const std::vector<std::int32_t> b{0};
  EXPECT_THROW(rand_index(a, b), std::invalid_argument);
}

TEST(RandIndex, AllNoiseAgreesWithAllNoise) {
  // Noise points are singletons: every pair is "apart" in both inputs
  // even though they share the sentinel label.
  const std::vector<std::int32_t> noise(6, kNoise);
  EXPECT_DOUBLE_EQ(rand_index(noise, noise), 1.0);
}

TEST(RandIndex, AllNoiseVersusOneClusterIsTotalDisagreement) {
  const std::vector<std::int32_t> noise(4, kNoise);
  const std::vector<std::int32_t> together(4, 0);
  EXPECT_DOUBLE_EQ(rand_index(noise, together), 0.0);
  EXPECT_DOUBLE_EQ(rand_index(together, noise), 0.0);
}

TEST(RandIndex, SingleClusterMatchesUnderAnyLabelValue) {
  const std::vector<std::int32_t> a(5, 0);
  const std::vector<std::int32_t> b(5, 1234);
  EXPECT_DOUBLE_EQ(rand_index(a, b), 1.0);
}

TEST(RandIndex, InvariantUnderLabelPermutation) {
  const std::vector<std::int32_t> a{0, 0, 1, 1, 2, 2, kNoise};
  const std::vector<std::int32_t> b{2, 2, 0, 0, 1, 1, kNoise};
  EXPECT_DOUBLE_EQ(rand_index(a, b), 1.0);
  EXPECT_DOUBLE_EQ(rand_index(a, a), 1.0);
}

TEST(RandIndex, PartialDisagreementLandsStrictlyBetween) {
  // Split one 4-cluster into two 2-clusters: the 4 cross pairs flip from
  // together to apart; 2 same-half pairs agree. With n = 4 (6 pairs):
  // RI = 1 - (6 + 2 - 2*2) / 6 = 1 - 4/6.
  const std::vector<std::int32_t> a{0, 0, 0, 0};
  const std::vector<std::int32_t> b{0, 0, 1, 1};
  const double ri = rand_index(a, b);
  EXPECT_NEAR(ri, 1.0 - 4.0 / 6.0, 1e-12);
  EXPECT_DOUBLE_EQ(rand_index(a, b), rand_index(b, a));
}

}  // namespace
}  // namespace hdbscan
