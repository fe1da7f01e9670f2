// Half-scan property tests: every pipeline's half-comparison build must
// canonicalize to the exact table the full-row host oracle produces —
// including on the inputs that stress the ordering invariant (duplicate
// coordinates, points sitting exactly on cell boundaries, one dense cell)
// — while doing roughly half the distance-test FLOPs.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/rng.hpp"
#include "core/hybrid_dbscan3.hpp"
#include "core/neighbor_table_builder.hpp"
#include "data/generators.hpp"
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

void expect_identical(NeighborTable got, NeighborTable want) {
  got.canonicalize();
  want.canonicalize();
  ASSERT_EQ(got.num_points(), want.num_points());
  EXPECT_EQ(got.total_pairs(), want.total_pairs());
  EXPECT_TRUE(got.identical_to(want));
}

/// Builds the index on the device and checks byte equality with the
/// host oracle after canonicalization.
void expect_matches_host(const std::vector<Point2>& points, float eps,
                         bool use_shared = false) {
  const GridIndex<Point2> index = build_grid_index(points, eps);
  BatchPolicy policy;
  policy.use_shared_kernel = use_shared;
  cudasim::Device dev({}, fast_options());
  NeighborTable table = NeighborTableBuilder(dev, policy).build(index, eps);
  expect_identical(std::move(table), build_neighbor_table_host(index, eps));
}

/// Duplicate coordinates: zero-distance pairs between distinct ids, where
/// "tested exactly once" leans entirely on the lookup-position ordering
/// (coordinates cannot break the tie).
std::vector<Point2> duplicate_heavy_points() {
  std::vector<Point2> points;
  for (int i = 0; i < 60; ++i) points.push_back({1.05f, 1.05f});
  for (int i = 0; i < 40; ++i) points.push_back({1.05f, 1.35f});
  const auto filler = data::generate_uniform(400, 11, 4.0f, 4.0f);
  points.insert(points.end(), filler.begin(), filler.end());
  return points;
}

/// Points exactly on cell boundaries: candidates sit in the first row/col
/// of their cell, where an off-by-one in the forward stencil would drop or
/// double-count cross-cell pairs.
std::vector<Point2> cell_boundary_points(float eps) {
  std::vector<Point2> points;
  for (int cx = 0; cx < 8; ++cx) {
    for (int cy = 0; cy < 8; ++cy) {
      points.push_back({cx * eps, cy * eps});          // cell corner
      points.push_back({cx * eps + eps / 2, cy * eps});  // edge midpoint
    }
  }
  return points;
}

TEST(HalfComparison, CsrMatchesHostOnDuplicateCoordinates) {
  expect_matches_host(duplicate_heavy_points(), 0.3f);
}

TEST(HalfComparison, CsrMatchesHostOnCellBoundaryPoints) {
  expect_matches_host(cell_boundary_points(0.25f), 0.25f);
}

TEST(HalfComparison, CsrMatchesHostOnDenseSingleCell) {
  // Every point in one grid cell: the same-cell >= rule carries the whole
  // invariant (the stencil contributes nothing).
  std::vector<Point2> points(500, Point2{2.0f, 2.0f});
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].x += 0.0001f * static_cast<float>(i % 7);
  }
  expect_matches_host(points, 0.5f);
}

TEST(HalfComparison, SharedKernelMatchesHost) {
  // The shared-tile kernel restores symmetry device-side (push_dual), so
  // its build needs no host expand — it must still match byte-for-byte.
  expect_matches_host(data::generate_sky_survey(3000, 91), 0.35f,
                      /*use_shared=*/true);
  expect_matches_host(duplicate_heavy_points(), 0.3f, /*use_shared=*/true);
}

TEST(HalfComparison, MatchesHostOracle) {
  expect_matches_host(
      data::generate_space_weather(2000, 33, {.width = 8.0f, .height = 8.0f}),
      0.3f);
}

TEST(HalfComparison, HostStridedForwardShardsExpandToFullTable) {
  // The degradation ladder's host rung builds *forward* shards; merged and
  // expanded they must equal the full host table.
  const auto points = data::generate_uniform(1500, 7, 6.0f, 6.0f);
  const float eps = 0.3f;
  const GridIndex<Point2> index = build_grid_index(points, eps);
  NeighborTable merged(index.size());
  const std::uint32_t stride = 3;
  for (std::uint32_t first = 0; first < stride; ++first) {
    merged.absorb_shard(
        build_neighbor_table_host_strided(index, eps, first, stride));
  }
  const double expand_seconds = merged.expand_half_table();
  EXPECT_GE(expand_seconds, 0.0);
  expect_identical(std::move(merged), build_neighbor_table_host(index, eps));
}

TEST(HalfComparison, Device3MatchesHostAndIsDeterministic) {
  std::vector<Point3> points;
  Xoshiro256 rng(19);
  for (int i = 0; i < 1200; ++i) {
    points.push_back({rng.uniform(0.0f, 4.0f), rng.uniform(0.0f, 4.0f),
                      rng.uniform(0.0f, 4.0f)});
  }
  // Duplicate-coordinate clump in 3-D too.
  for (int i = 0; i < 30; ++i) points.push_back({1.5f, 1.5f, 1.5f});
  const float eps = 0.4f;
  const GridIndex<Point3> index = build_grid_index(points, eps);

  cudasim::Device dev({}, fast_options());
  NeighborTable first = build_neighbor_table_device3(dev, index, eps);
  cudasim::Device dev2({}, fast_options());
  NeighborTable again = build_neighbor_table_device3(dev2, index, eps);
  expect_identical(std::move(first),
                   build_neighbor_table_host(index, eps));
  expect_identical(std::move(again),
                   build_neighbor_table_host(index, eps));
}

TEST(HalfComparison, HalfScanRoughlyHalvesDistanceFlops) {
  // The half scan's arithmetic claim, as a regression gate (the perf_smoke
  // ctest runs this case alone): on uniform data the batch kernels must
  // spend under 0.6x the distance-test FLOPs and ship fewer D2H bytes than
  // a full-row build would (ideal is ~0.5x; self-pairs and stencil edges
  // keep it above that), and still produce the full table.
  const auto points = data::generate_uniform(6000, 5, 8.0f, 8.0f);
  const float eps = 0.3f;
  const GridIndex<Point2> index = build_grid_index(points, eps);

  // A full-row build tests every candidate of the 9-cell stencil in both
  // the count and the fill pass, at 6 FLOPs per test.
  std::uint64_t full_candidates = 0;
  for (const Point2& p : index.points) {
    std::array<std::uint32_t, 9> cells{};
    const unsigned n =
        get_neighbor_cells(index.params, index.params.linear_cell(p), cells);
    for (unsigned c = 0; c < n; ++c) {
      full_candidates += index.cells[cells[c]].count();
    }
  }
  const std::uint64_t full_flops = 2 * 6 * full_candidates;

  BuildReport report;
  cudasim::Device dev({}, fast_options());
  NeighborTable table =
      NeighborTableBuilder(dev).build(index, eps, &report);
  const NeighborTable oracle = build_neighbor_table_host(index, eps);

  ASSERT_GT(report.kernel_flops, 0u);
  EXPECT_LT(static_cast<double>(report.kernel_flops),
            0.6 * static_cast<double>(full_flops));
  // A full-row CSR build ships one offset per point plus every row value.
  EXPECT_EQ(report.total_pairs, oracle.total_pairs());
  EXPECT_LT(report.d2h_bytes,
            sizeof(PointId) * (oracle.total_pairs() + index.size()));
  EXPECT_GT(report.expand_seconds, 0.0);
  expect_identical(std::move(table), oracle);
}

}  // namespace
}  // namespace hdbscan
