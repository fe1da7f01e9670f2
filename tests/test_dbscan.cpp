#include "dbscan/dbscan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "data/generators.hpp"
#include "dbscan/cluster_compare.hpp"

namespace hdbscan {
namespace {

TEST(Dbscan, EmptyishInput) {
  const std::vector<Point2> one{{0, 0}};
  const auto r = dbscan_rtree(one, 1.0f, 4);
  ASSERT_EQ(r.labels.size(), 1u);
  EXPECT_EQ(r.labels[0], kNoise);
  EXPECT_EQ(r.num_clusters, 0);
}

TEST(Dbscan, MinptsOneMakesEveryPointCore) {
  const auto points = data::generate_uniform(100, 1, 100.0f, 100.0f);
  const auto r = dbscan_rtree(points, 0.5f, 1);
  EXPECT_EQ(r.noise_count(), 0u);
  EXPECT_GT(r.num_clusters, 0);
}

TEST(Dbscan, RejectsInvalidMinpts) {
  const std::vector<Point2> points{{0, 0}, {1, 1}};
  EXPECT_THROW(dbscan_rtree(points, 1.0f, 0), std::invalid_argument);
}

TEST(Dbscan, TwoSeparatedBlobsFormTwoClusters) {
  std::vector<Point2> points;
  Xoshiro256 rng(4);
  for (int i = 0; i < 100; ++i) {
    points.push_back({rng.uniform(0.0f, 1.0f), rng.uniform(0.0f, 1.0f)});
  }
  for (int i = 0; i < 100; ++i) {
    points.push_back({rng.uniform(10.0f, 11.0f), rng.uniform(10.0f, 11.0f)});
  }
  const auto r = dbscan_rtree(points, 0.4f, 4);
  EXPECT_EQ(r.num_clusters, 2);
  EXPECT_EQ(r.noise_count(), 0u);
  // All of blob 1 shares a label distinct from blob 2.
  const std::int32_t l0 = r.labels[0];
  const std::int32_t l1 = r.labels[100];
  EXPECT_NE(l0, l1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.labels[i], l0);
  for (int i = 100; i < 200; ++i) EXPECT_EQ(r.labels[i], l1);
}

TEST(Dbscan, IsolatedPointsAreNoise) {
  std::vector<Point2> points;
  // A tight clump of 10 plus 5 far-away singletons.
  for (int i = 0; i < 10; ++i) {
    points.push_back({0.01f * static_cast<float>(i), 0.0f});
  }
  for (int i = 0; i < 5; ++i) {
    points.push_back({100.0f + 10.0f * static_cast<float>(i), 100.0f});
  }
  const auto r = dbscan_rtree(points, 0.5f, 4);
  EXPECT_EQ(r.num_clusters, 1);
  EXPECT_EQ(r.noise_count(), 5u);
  for (int i = 10; i < 15; ++i) EXPECT_EQ(r.labels[i], kNoise);
}

TEST(Dbscan, RecoversGeneratedBlobs) {
  std::vector<int> truth;
  const auto points = data::generate_gaussian_blobs(
      2000, 5, /*num_blobs=*/9, /*sigma=*/0.2f, 30.0f, 30.0f, 0.0, &truth);
  const auto r = dbscan_rtree(points, 0.5f, 4);
  EXPECT_EQ(r.num_clusters, 9);
  // Points from the same blob that are clustered must share a label.
  std::vector<std::int32_t> blob_to_label(9, -10);
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (r.labels[i] < 0) continue;
    auto& m = blob_to_label[static_cast<std::size_t>(truth[i])];
    if (m == -10) {
      m = r.labels[i];
    } else {
      EXPECT_EQ(m, r.labels[i]) << "blob " << truth[i] << " split";
    }
  }
}

TEST(Dbscan, LargerEpsMergesClusters) {
  const auto points = data::generate_gaussian_blobs(1000, 6, 4, 0.3f, 10.0f,
                                                    10.0f);
  const auto tight = dbscan_rtree(points, 0.3f, 4);
  const auto loose = dbscan_rtree(points, 6.0f, 4);
  EXPECT_GE(tight.num_clusters, loose.num_clusters);
  EXPECT_EQ(loose.num_clusters, 1);
}

TEST(Dbscan, HigherMinptsIncreasesNoise) {
  const auto points = data::generate_sky_survey(3000, 7);
  const auto low = dbscan_rtree(points, 0.3f, 4);
  const auto high = dbscan_rtree(points, 0.3f, 30);
  EXPECT_LE(low.noise_count(), high.noise_count());
}

TEST(Dbscan, GridVariantMatchesRtreeVariant) {
  const auto points = data::generate_space_weather(2000, 8);
  const float eps = 0.35f;
  const int minpts = 4;
  const auto ref = dbscan_rtree(points, eps, minpts);
  const GridIndex<Point2> index = build_grid_index(points, eps);
  const auto via_grid_indexed = dbscan_grid(index, eps, minpts);

  // Map grid-order labels back to input order before comparing.
  ClusterResult via_grid;
  via_grid.num_clusters = via_grid_indexed.num_clusters;
  via_grid.labels.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    via_grid.labels[index.original_ids[i]] = via_grid_indexed.labels[i];
  }

  // Both must be valid DBSCAN results w.r.t. an input-order neighbor
  // table; build one by brute force through the grid.
  const GridIndex<Point2> check_index = build_grid_index(points, eps);
  NeighborTable input_order_table(points.size());
  std::vector<PointId> neighbors;
  for (PointId i = 0; i < points.size(); ++i) {
    grid_query(check_index, points[i], eps, neighbors);
    std::vector<NeighborPair> pairs;
    for (const PointId v : neighbors) {
      pairs.push_back({i, check_index.original_ids[v]});
    }
    std::sort(pairs.begin(), pairs.end());
    input_order_table.append_sorted_batch(pairs);
  }
  const auto outcome =
      compare_clusterings(ref, via_grid, input_order_table, minpts);
  EXPECT_TRUE(outcome.equivalent) << outcome.diagnostic;
}

TEST(Dbscan, NeighborTableVariantMatchesGridVariant) {
  const auto points = data::generate_sky_survey(2500, 9);
  const float eps = 0.4f;
  const int minpts = 5;
  const GridIndex<Point2> index = build_grid_index(points, eps);
  const NeighborTable table = build_neighbor_table_host(index, eps);
  const auto a = dbscan_grid(index, eps, minpts);
  const auto b = dbscan_neighbor_table(table, minpts);
  const auto outcome = compare_clusterings(a, b, table, minpts);
  EXPECT_TRUE(outcome.equivalent) << outcome.diagnostic;
  // Same search order -> labels should even be bitwise identical.
  EXPECT_EQ(a.labels, b.labels);
}

TEST(ClusterResult, CanonicalizeIsOrderInvariant) {
  ClusterResult a;
  a.labels = {2, 2, 0, 1, -1, 0};
  a.num_clusters = 3;
  ClusterResult b;
  b.labels = {0, 0, 1, 2, -1, 1};
  b.num_clusters = 3;
  EXPECT_EQ(canonicalize(a).labels, canonicalize(b).labels);
  EXPECT_EQ(canonicalize(a).num_clusters, 3);
}

TEST(ClusterResult, Accessors) {
  ClusterResult r;
  r.labels = {0, 0, 1, -1, -1, 1, 1};
  r.num_clusters = 2;
  EXPECT_EQ(r.noise_count(), 2u);
  EXPECT_EQ(r.clustered_count(), 5u);
  const auto sizes = r.cluster_sizes();
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 2u);
  EXPECT_EQ(sizes[1], 3u);
}

}  // namespace
}  // namespace hdbscan
