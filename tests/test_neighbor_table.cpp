#include "dbscan/neighbor_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "data/generators.hpp"
#include "index/grid_index.hpp"

namespace hdbscan {
namespace {

TEST(NeighborTable, EmptyTableHasEmptyRanges) {
  const NeighborTable t(5);
  EXPECT_EQ(t.num_points(), 5u);
  for (PointId i = 0; i < 5; ++i) {
    EXPECT_EQ(t.neighbor_count(i), 0u);
    EXPECT_TRUE(t.neighbors(i).empty());
  }
}

TEST(NeighborTable, SingleBatchRanges) {
  NeighborTable t(4);
  const std::vector<NeighborPair> pairs{
      {0, 0}, {0, 2}, {1, 1}, {3, 3}, {3, 0}, {3, 1}};
  t.append_sorted_batch(pairs);
  EXPECT_EQ(t.total_pairs(), 6u);
  ASSERT_EQ(t.neighbor_count(0), 2u);
  EXPECT_EQ(t.neighbors(0)[0], 0u);
  EXPECT_EQ(t.neighbors(0)[1], 2u);
  EXPECT_EQ(t.neighbor_count(1), 1u);
  EXPECT_EQ(t.neighbor_count(2), 0u);
  ASSERT_EQ(t.neighbor_count(3), 3u);
  EXPECT_EQ(t.neighbors(3)[2], 1u);
}

TEST(NeighborTable, MultipleBatchesWithInterleavedKeys) {
  NeighborTable t(6);
  // Strided batches: keys {0, 2, 4} then {1, 3, 5}.
  t.append_sorted_batch(std::vector<NeighborPair>{{0, 9}, {2, 8}, {4, 7}});
  t.append_sorted_batch(std::vector<NeighborPair>{{1, 6}, {3, 5}, {5, 4}});
  for (PointId i = 0; i < 6; ++i) {
    ASSERT_EQ(t.neighbor_count(i), 1u) << i;
  }
  EXPECT_EQ(t.neighbors(0)[0], 9u);
  EXPECT_EQ(t.neighbors(5)[0], 4u);
  EXPECT_EQ(t.total_pairs(), 6u);
}

TEST(NeighborTable, RejectsKeyOutOfRange) {
  NeighborTable t(3);
  EXPECT_THROW(t.append_sorted_batch(std::vector<NeighborPair>{{7, 0}}),
               std::out_of_range);
}

TEST(NeighborTable, RejectsKeyInTwoBatches) {
  NeighborTable t(3);
  t.append_sorted_batch(std::vector<NeighborPair>{{1, 0}});
  EXPECT_THROW(t.append_sorted_batch(std::vector<NeighborPair>{{1, 2}}),
               std::logic_error);
}

TEST(NeighborTable, HostBuildMatchesGridQueries) {
  const auto points = data::generate_sky_survey(2500, 21);
  const float eps = 0.4f;
  const GridIndex<Point2> index = build_grid_index(points, eps);
  const NeighborTable table = build_neighbor_table_host(index, eps);
  EXPECT_EQ(table.num_points(), index.size());

  std::vector<PointId> expected;
  for (PointId i = 0; i < index.size(); i += 41) {
    grid_query(index, index.points[i], eps, expected);
    std::sort(expected.begin(), expected.end());
    std::vector<PointId> got(table.neighbors(i).begin(),
                             table.neighbors(i).end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "point " << i;
    // Self always included.
    EXPECT_TRUE(std::binary_search(got.begin(), got.end(), i));
  }
}

TEST(NeighborTable, TotalPairsMatchesSumOfCounts) {
  const auto points = data::generate_space_weather(1500, 22);
  const GridIndex<Point2> index = build_grid_index(points, 0.3f);
  const NeighborTable table = build_neighbor_table_host(index, 0.3f);
  std::uint64_t sum = 0;
  for (PointId i = 0; i < table.num_points(); ++i) {
    sum += table.neighbor_count(i);
  }
  EXPECT_EQ(sum, table.total_pairs());
}

TEST(NeighborTable, SymmetricNeighborhoods) {
  // j in N(i) <=> i in N(j) (Euclidean distance is symmetric).
  const auto points = data::generate_uniform(800, 23, 5.0f, 5.0f);
  const GridIndex<Point2> index = build_grid_index(points, 0.5f);
  const NeighborTable table = build_neighbor_table_host(index, 0.5f);
  for (PointId i = 0; i < table.num_points(); ++i) {
    for (const PointId j : table.neighbors(i)) {
      const auto back = table.neighbors(j);
      EXPECT_TRUE(std::find(back.begin(), back.end(), i) != back.end())
          << i << " -> " << j << " not symmetric";
    }
  }
}

TEST(NeighborTable, ParallelHostBuildEqualsSequential) {
  const auto points = data::generate_space_weather(3000, 24);
  const float eps = 0.35f;
  const GridIndex<Point2> index = build_grid_index(points, eps);
  const NeighborTable sequential = build_neighbor_table_host(index, eps);
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    const NeighborTable parallel =
        build_neighbor_table_host(index, eps, threads);
    ASSERT_EQ(parallel.total_pairs(), sequential.total_pairs());
    for (PointId i = 0; i < sequential.num_points(); ++i) {
      const auto a = sequential.neighbors(i);
      const auto b = parallel.neighbors(i);
      ASSERT_EQ(std::vector<PointId>(a.begin(), a.end()),
                std::vector<PointId>(b.begin(), b.end()))
          << "threads=" << threads << " point " << i;
    }
  }
}

}  // namespace
}  // namespace hdbscan
