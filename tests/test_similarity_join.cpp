#include "core/similarity_join.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "data/generators.hpp"
#include "dbscan/neighbor_table.hpp"
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

std::vector<NeighborPair> brute_join(std::span<const Point2> queries,
                                     std::span<const Point2> points,
                                     float eps) {
  std::vector<NeighborPair> out;
  for (PointId q = 0; q < queries.size(); ++q) {
    for (PointId p = 0; p < points.size(); ++p) {
      if (dist2(queries[q], points[p]) <= eps * eps) out.push_back({q, p});
    }
  }
  return out;
}

TEST(SimilarityJoin, MatchesBruteForceCrossDatasets) {
  const auto data_pts = data::generate_sky_survey(
      2000, 61, {.width = 8.0f, .height = 8.0f});
  const auto queries =
      data::generate_uniform(500, 62, 8.0f, 8.0f);
  const float eps = 0.4f;
  const GridIndex<Point2> index = build_grid_index(data_pts, eps);
  cudasim::Device device({}, fast_options());

  JoinResult result = similarity_join(device, queries, index, eps);
  std::sort(result.pairs.begin(), result.pairs.end());

  auto expected = brute_join(queries, index.points, eps);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(result.pairs, expected);
  EXPECT_GT(result.modeled_seconds, 0.0);
}

TEST(SimilarityJoin, SelfJoinEqualsNeighborTable) {
  const auto points = data::generate_space_weather(
      1500, 63, {.width = 8.0f, .height = 8.0f});
  const float eps = 0.3f;
  const GridIndex<Point2> index = build_grid_index(points, eps);
  const NeighborTable table = build_neighbor_table_host(index, eps);
  cudasim::Device device({}, fast_options());

  // Query with the index's own (reordered) points: key i == point i.
  JoinResult result = similarity_join(device, index.points, index, eps);
  EXPECT_EQ(result.pairs.size(), table.total_pairs());
  std::sort(result.pairs.begin(), result.pairs.end());
  std::vector<NeighborPair> expected;
  for (PointId i = 0; i < table.num_points(); ++i) {
    for (const PointId v : table.neighbors(i)) expected.push_back({i, v});
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(result.pairs, expected);
}

TEST(SimilarityJoin, QueriesOutsideExtentHandled) {
  const auto points = data::generate_uniform(500, 64, 4.0f, 4.0f);
  const float eps = 0.5f;
  const GridIndex<Point2> index = build_grid_index(points, eps);
  // Queries straddling and far beyond the boundary.
  const std::vector<Point2> queries{{-0.2f, 2.0f}, {4.3f, 2.0f},
                                    {2.0f, -0.2f}, {2.0f, 4.4f},
                                    {50.0f, 50.0f}, {-9.0f, -9.0f}};
  cudasim::Device device({}, fast_options());
  JoinResult result = similarity_join(device, queries, index, eps);
  std::sort(result.pairs.begin(), result.pairs.end());
  auto expected = brute_join(queries, index.points, eps);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(result.pairs, expected);
}

TEST(SimilarityJoin, EmptyQueries) {
  const auto points = data::generate_uniform(100, 65, 2.0f, 2.0f);
  const GridIndex<Point2> index = build_grid_index(points, 0.2f);
  cudasim::Device device({}, fast_options());
  const JoinResult result = similarity_join(device, {}, index, 0.2f);
  EXPECT_TRUE(result.pairs.empty());
}

TEST(SimilarityJoin, RejectsEpsBeyondCellWidth) {
  const auto points = data::generate_uniform(100, 66, 2.0f, 2.0f);
  const GridIndex<Point2> index = build_grid_index(points, 0.2f);
  cudasim::Device device({}, fast_options());
  const std::vector<Point2> queries{{1.0f, 1.0f}};
  EXPECT_THROW((void)similarity_join(device, queries, index, 0.5f),
               std::invalid_argument);
}

// --- kNN ---

std::vector<KnnNeighbor> brute_knn(std::span<const Point2> points,
                                   const Point2& q, unsigned k) {
  std::vector<KnnNeighbor> all;
  for (PointId i = 0; i < points.size(); ++i) {
    all.push_back({i, dist(q, points[i])});
  }
  std::sort(all.begin(), all.end(),
            [](const KnnNeighbor& a, const KnnNeighbor& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.id < b.id;
            });
  all.resize(std::min<std::size_t>(k, all.size()));
  return all;
}

class KnnSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(KnnSweep, MatchesBruteForceDistances) {
  const unsigned k = GetParam();
  const auto points = data::generate_space_weather(
      2000, 67, {.width = 8.0f, .height = 8.0f});
  const GridIndex<Point2> index = build_grid_index(points, 0.25f);
  Xoshiro256 rng(68);
  for (int trial = 0; trial < 20; ++trial) {
    const Point2 q{rng.uniform(0.0f, 8.0f), rng.uniform(0.0f, 8.0f)};
    const auto got = knn_search(index, q, k);
    const auto expected = brute_knn(index.points, q, k);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      // Ties may resolve to different ids; distances must match exactly.
      EXPECT_FLOAT_EQ(got[i].distance, expected[i].distance)
          << "k=" << k << " trial=" << trial << " rank=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KnnSweep, ::testing::Values(1u, 5u, 32u, 200u));

TEST(Knn, KLargerThanDatasetReturnsAll) {
  const auto points = data::generate_uniform(50, 69, 2.0f, 2.0f);
  const GridIndex<Point2> index = build_grid_index(points, 0.3f);
  const auto got = knn_search(index, {1.0f, 1.0f}, 500);
  EXPECT_EQ(got.size(), 50u);
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_LE(got[i - 1].distance, got[i].distance);
  }
}

TEST(Knn, ZeroKIsEmpty) {
  const auto points = data::generate_uniform(50, 70, 2.0f, 2.0f);
  const GridIndex<Point2> index = build_grid_index(points, 0.3f);
  EXPECT_TRUE(knn_search(index, {1.0f, 1.0f}, 0).empty());
}

}  // namespace
}  // namespace hdbscan
