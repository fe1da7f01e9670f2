#include "index/grid_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "cudasim/device.hpp"
#include "data/generators.hpp"
#include "gpu/kernels.hpp"

namespace hdbscan {
namespace {

std::vector<PointId> brute_force_neighbors(std::span<const Point2> points,
                                           const Point2& q, float eps) {
  std::vector<PointId> out;
  for (PointId i = 0; i < points.size(); ++i) {
    if (dist2(q, points[i]) <= eps * eps) out.push_back(i);
  }
  return out;
}

TEST(GridIndex, RejectsBadInput) {
  const std::vector<Point2> points{{0, 0}, {1, 1}};
  EXPECT_THROW(build_grid_index(std::span<const Point2>{}, 1.0f),
               std::invalid_argument);
  EXPECT_THROW(build_grid_index(points, 0.0f), std::invalid_argument);
  EXPECT_THROW(build_grid_index(points, -1.0f), std::invalid_argument);
  EXPECT_THROW(build_grid_index(points, 1e-9f, /*max_cells=*/100),
               std::invalid_argument);

  // 40 grid points plus one coordinate no cell can hold. Non-finite input
  // is named by its input id; a 1e30-wide extent overflows the cell count
  // and is refused before the cast could wrap it.
  const float inf = std::numeric_limits<float>::infinity();
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(), inf, -inf,
                          1e30f}) {
    for (const bool on_y : {false, true}) {
      std::vector<Point2> grid;
      for (int i = 0; i < 40; ++i) {
        grid.push_back({0.1f * static_cast<float>(i % 8),
                        0.1f * static_cast<float>(i / 8)});
      }
      grid.push_back(on_y ? Point2{0.0f, bad} : Point2{bad, 0.0f});
      try {
        (void)build_grid_index(grid, 0.15f);
        ADD_FAILURE() << "accepted coordinate " << bad;
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        if (std::isfinite(bad)) {
          EXPECT_NE(what.find("capacity"), std::string::npos) << what;
        } else {
          EXPECT_NE(what.find("input point 40 "), std::string::npos) << what;
        }
      }
    }
  }
}

TEST(GridIndex, SinglePointGrid) {
  const std::vector<Point2> points{{3.5f, -2.0f}};
  const GridIndex<Point2> g = build_grid_index(points, 0.5f);
  EXPECT_EQ(g.size(), 1u);
  EXPECT_EQ(g.params.shape[0], 1u);
  EXPECT_EQ(g.params.shape[1], 1u);
  EXPECT_EQ(g.lookup.size(), 1u);
  EXPECT_EQ(g.nonempty_cells.size(), 1u);
  EXPECT_EQ(g.max_cell_occupancy, 1u);
}

TEST(GridIndex, LookupArrayIsPermutationOfPointIds) {
  const auto points = data::generate_uniform(5000, 1, 10.0f, 10.0f);
  const GridIndex<Point2> g = build_grid_index(points, 0.3f);
  ASSERT_EQ(g.lookup.size(), points.size());
  std::vector<PointId> sorted(g.lookup.begin(), g.lookup.end());
  std::sort(sorted.begin(), sorted.end());
  for (PointId i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST(GridIndex, OriginalIdsArePermutation) {
  const auto points = data::generate_uniform(3000, 2, 10.0f, 10.0f);
  const GridIndex<Point2> g = build_grid_index(points, 0.5f);
  std::vector<PointId> sorted(g.original_ids.begin(), g.original_ids.end());
  std::sort(sorted.begin(), sorted.end());
  for (PointId i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  // Reordered points really are the originals.
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g.points[i], points[g.original_ids[i]]);
  }
}

TEST(GridIndex, CellRangesPartitionLookup) {
  const auto points = data::generate_sky_survey(4000, 3);
  const GridIndex<Point2> g = build_grid_index(points, 0.4f);
  std::uint32_t covered = 0;
  std::uint32_t prev_end = 0;
  for (const CellRange& c : g.cells) {
    EXPECT_EQ(c.begin, prev_end);  // contiguous, in cell order
    EXPECT_LE(c.begin, c.end);
    covered += c.count();
    prev_end = c.end;
  }
  EXPECT_EQ(covered, points.size());

  // Cell-major layout: A is the identity, cell ids never decrease along D,
  // and a cell's residents keep their input order.
  for (PointId a = 0; a < g.lookup.size(); ++a) ASSERT_EQ(g.lookup[a], a);
  for (PointId i = 1; i < g.size(); ++i) {
    const std::uint32_t prev = g.params.linear_cell(g.points[i - 1]);
    const std::uint32_t cur = g.params.linear_cell(g.points[i]);
    ASSERT_LE(prev, cur) << "i=" << i;
    if (prev == cur) {
      ASSERT_LT(g.original_ids[i - 1], g.original_ids[i]) << "i=" << i;
    }
  }
}

TEST(GridIndex, EveryPointInItsOwnCellRange) {
  const auto points = data::generate_space_weather(3000, 4);
  const GridIndex<Point2> g = build_grid_index(points, 0.25f);
  for (PointId i = 0; i < g.size(); ++i) {
    const std::uint32_t h = g.params.linear_cell(g.points[i]);
    const CellRange range = g.cells[h];
    bool found = false;
    for (std::uint32_t a = range.begin; a < range.end && !found; ++a) {
      found = g.lookup[a] == i;
    }
    EXPECT_TRUE(found) << "point " << i << " missing from its cell";
  }
}

TEST(GridIndex, NonemptyCellsMatchOccupancy) {
  const auto points = data::generate_space_weather(2000, 5);
  const GridIndex<Point2> g = build_grid_index(points, 0.5f);
  std::set<std::uint32_t> nonempty(g.nonempty_cells.begin(),
                                   g.nonempty_cells.end());
  std::uint32_t max_occ = 0;
  for (std::uint32_t h = 0; h < g.cells.size(); ++h) {
    if (g.cells[h].count() > 0) {
      EXPECT_TRUE(nonempty.count(h)) << h;
      max_occ = std::max(max_occ, g.cells[h].count());
    } else {
      EXPECT_FALSE(nonempty.count(h)) << h;
    }
  }
  EXPECT_EQ(g.max_cell_occupancy, max_occ);
}

TEST(NeighborCells, InteriorCellHasNine) {
  GridParams<Point2> p{{0, 0}, 1.0f, {5, 5}};
  std::array<std::uint32_t, 9> out{};
  EXPECT_EQ(get_neighbor_cells(p, 12, out), 9u);  // center of 5x5
  std::set<std::uint32_t> cells(out.begin(), out.end());
  for (const std::uint32_t c : {6u, 7u, 8u, 11u, 12u, 13u, 16u, 17u, 18u}) {
    EXPECT_TRUE(cells.count(c));
  }
}

TEST(NeighborCells, CornerCellHasFour) {
  GridParams<Point2> p{{0, 0}, 1.0f, {5, 5}};
  std::array<std::uint32_t, 9> out{};
  EXPECT_EQ(get_neighbor_cells(p, 0, out), 4u);
  EXPECT_EQ(get_neighbor_cells(p, 24, out), 4u);
}

TEST(NeighborCells, EdgeCellHasSix) {
  GridParams<Point2> p{{0, 0}, 1.0f, {5, 5}};
  std::array<std::uint32_t, 9> out{};
  EXPECT_EQ(get_neighbor_cells(p, 2, out), 6u);   // top edge
  EXPECT_EQ(get_neighbor_cells(p, 10, out), 6u);  // left edge
}

TEST(NeighborCells, SingleCellGrid) {
  GridParams<Point2> p{{0, 0}, 1.0f, {1, 1}};
  std::array<std::uint32_t, 9> out{};
  EXPECT_EQ(get_neighbor_cells(p, 0, out), 1u);
  EXPECT_EQ(out[0], 0u);
}

// Property sweep: grid_query must agree with brute force over datasets of
// both characters and a range of eps values.
class GridQueryProperty
    : public ::testing::TestWithParam<std::tuple<int, float>> {};

TEST_P(GridQueryProperty, MatchesBruteForce) {
  const auto [family, eps] = GetParam();
  const std::size_t n = 1500;
  const std::vector<Point2> points =
      family == 0   ? data::generate_uniform(n, 77, 8.0f, 8.0f)
      : family == 1 ? data::generate_space_weather(
                          n, 78, {.width = 8.0f, .height = 8.0f})
                    : data::generate_sky_survey(
                          n, 79, {.width = 8.0f, .height = 8.0f});
  const GridIndex<Point2> g = build_grid_index(points, eps);

  std::vector<PointId> got;
  for (PointId q = 0; q < g.size(); q += 37) {  // sample queries
    grid_query(g, g.points[q], eps, got);
    auto expected = brute_force_neighbors(g.points, g.points[q], eps);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, expected) << "query " << q << " eps " << eps;
    // Self-inclusion: the point itself is always within eps.
    EXPECT_TRUE(std::binary_search(got.begin(), got.end(), q));
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndEps, GridQueryProperty,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0.05f, 0.2f, 0.5f, 1.0f, 2.5f)));

TEST(GridIndex, DuplicatePointsAllIndexed) {
  std::vector<Point2> points(100, Point2{1.0f, 1.0f});
  const GridIndex<Point2> g = build_grid_index(points, 0.5f);
  EXPECT_EQ(g.max_cell_occupancy, 100u);
  std::vector<PointId> out;
  grid_query(g, {1.0f, 1.0f}, 0.5f, out);
  EXPECT_EQ(out.size(), 100u);
}

TEST(GridIndex, EpsLargerThanExtent) {
  const auto points = data::generate_uniform(200, 11, 2.0f, 2.0f);
  const GridIndex<Point2> g = build_grid_index(points, 10.0f);
  EXPECT_EQ(g.params.num_cells(), 1u);
  std::vector<PointId> out;
  grid_query(g, points[0], 10.0f, out);
  EXPECT_EQ(out.size(), 200u);
}

// --- One body for d = 2 and d = 3 -------------------------------------
//
// The stencils, queries and kernel accounting are written once over the
// point type; these cases run that one body in both dimensions on grids
// with boundary cells, so a drift shows up in either.

template <typename Point>
class GridDims : public ::testing::Test {
 protected:
  static constexpr int kDims = PointTraits<Point>::kDims;

  /// Grids of shape {base, base + 1, ...}: base 1 gives a one-cell-wide
  /// axis, base 3 interior cells; every grid has boundary cells.
  static std::vector<GridParams<Point>> grids() {
    std::vector<GridParams<Point>> out;
    for (const std::uint32_t base : {1u, 3u}) {
      GridParams<Point> p;
      p.eps = 1.0f;
      for (int axis = 0; axis < kDims; ++axis) {
        p.shape[axis] = base + static_cast<std::uint32_t>(axis);
      }
      out.push_back(p);
    }
    return out;
  }

  static std::vector<Point> random_points(std::size_t n, std::uint64_t seed,
                                          float extent) {
    Xoshiro256 rng(seed);
    std::vector<Point> points(n);
    for (Point& p : points) {
      if constexpr (kDims == 2) {
        p = {rng.uniform(0.0f, extent), rng.uniform(0.0f, extent)};
      } else {
        p = {rng.uniform(0.0f, extent), rng.uniform(0.0f, extent),
             rng.uniform(0.0f, extent)};
      }
    }
    // A duplicate clump fills one cell well past the others.
    for (int i = 0; i < 20; ++i) points.push_back(points.front());
    return points;
  }
};

using PointTypes = ::testing::Types<Point2, Point3>;
TYPED_TEST_SUITE(GridDims, PointTypes);

TYPED_TEST(GridDims, ForwardStencilIsTheLargerIdHalfOfTheFullStencil) {
  for (const auto& p : TestFixture::grids()) {
    for (std::uint32_t h = 0; h < p.num_cells(); ++h) {
      StencilCells<TypeParam> full{};
      StencilCells<TypeParam> fwd{};
      const unsigned nfull = get_neighbor_cells(p, h, full);
      const unsigned nfwd = get_forward_neighbor_cells(p, h, fwd);
      ASSERT_TRUE(std::adjacent_find(full.begin(), full.begin() + nfull,
                                     std::greater_equal<>()) ==
                  full.begin() + nfull)
          << "full stencil of cell " << h << " not strictly ascending";
      std::vector<std::uint32_t> larger;
      for (unsigned k = 0; k < nfull; ++k) {
        if (full[k] > h) larger.push_back(full[k]);
      }
      ASSERT_EQ(std::vector<std::uint32_t>(fwd.begin(), fwd.begin() + nfwd),
                larger)
          << "cell " << h;
    }
  }
}

TYPED_TEST(GridDims, EveryAdjacentCellPairIsInExactlyOneForwardStencil) {
  for (const auto& p : TestFixture::grids()) {
    std::map<std::pair<std::uint32_t, std::uint32_t>, int> owners;
    for (std::uint32_t h = 0; h < p.num_cells(); ++h) {
      StencilCells<TypeParam> fwd{};
      const unsigned nfwd = get_forward_neighbor_cells(p, h, fwd);
      for (unsigned k = 0; k < nfwd; ++k) {
        ++owners[{std::min(h, fwd[k]), std::max(h, fwd[k])}];
      }
    }
    std::size_t adjacent_pairs = 0;
    for (std::uint32_t h = 0; h < p.num_cells(); ++h) {
      StencilCells<TypeParam> full{};
      const unsigned nfull = get_neighbor_cells(p, h, full);
      for (unsigned k = 0; k < nfull; ++k) {
        if (full[k] <= h) continue;
        ++adjacent_pairs;
        EXPECT_EQ((owners[{h, full[k]}]), 1) << h << "-" << full[k];
      }
    }
    EXPECT_EQ(owners.size(), adjacent_pairs);
  }
}

TYPED_TEST(GridDims, CountPassChargesThreeFlopsPerAxisPerForwardCandidate) {
  // eps 0.5 over a 2.2-wide cube: 5 cells per axis, the outer ones
  // clipped at the boundary.
  const float eps = 0.5f;
  const auto points = TestFixture::random_points(600, 41, 2.2f);
  const GridIndex<TypeParam> index = build_grid_index(points, eps);

  // Candidates the forward traversal tests, counted on the host: the own
  // cell's suffix from the query's id on, then every forward cell.
  std::uint64_t candidates = 0;
  std::uint64_t forward_neighbors = 0;
  std::vector<PointId> row;
  for (PointId i = 0; i < index.size(); ++i) {
    const std::uint32_t h = index.params.linear_cell(index.points[i]);
    const CellRange own = index.cells[h];
    const auto first = index.lookup.begin();
    candidates += own.end - (std::lower_bound(first + own.begin,
                                              first + own.end, i) -
                             first);
    StencilCells<TypeParam> fwd{};
    const unsigned nfwd = get_forward_neighbor_cells(index.params, h, fwd);
    for (unsigned k = 0; k < nfwd; ++k) {
      candidates += index.cells[fwd[k]].count();
    }
    grid_query_forward(index, i, eps, row);
    forward_neighbors += row.size();
  }

  cudasim::SimulationOptions opt;
  opt.executor_threads = 2;
  cudasim::Device dev({}, opt);
  std::vector<std::uint32_t> counts(index.size());
  const cudasim::KernelStats stats = gpu::run_count_batch(
      dev, GridView<TypeParam>::of(index), eps, {}, counts.data());
  // 6 FLOPs per distance test in 2-D, 9 in 3-D.
  const std::uint64_t flops_per_test =
      std::is_same_v<TypeParam, Point3> ? 9 : 6;
  EXPECT_EQ(stats.work.flops, flops_per_test * candidates);
  std::uint64_t counted = 0;
  for (const std::uint32_t c : counts) counted += c;
  EXPECT_EQ(counted, forward_neighbors);
}

}  // namespace
}  // namespace hdbscan
