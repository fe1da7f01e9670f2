// The two-pass CSR pipeline must produce exactly the host oracle's
// neighbor table — across clustered, uniform, and degenerate (every point
// in one cell) data — while shipping only bare values and offsets over
// PCIe and running no device sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

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

void expect_tables_equal(const NeighborTable& got, const NeighborTable& want) {
  ASSERT_EQ(got.num_points(), want.num_points());
  EXPECT_EQ(got.total_pairs(), want.total_pairs());
  for (PointId i = 0; i < got.num_points(); ++i) {
    std::vector<PointId> a(got.neighbors(i).begin(), got.neighbors(i).end());
    std::vector<PointId> b(want.neighbors(i).begin(), want.neighbors(i).end());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a, b) << "neighborhood mismatch at point " << i;
  }
}

/// Builds T and checks it against the host oracle.
BuildReport build_and_check(const std::vector<Point2>& points, float eps) {
  const GridIndex<Point2> index = build_grid_index(points, eps);
  const NeighborTable oracle = build_neighbor_table_host(index, eps);
  cudasim::Device dev({}, fast_options());
  BuildReport report;
  NeighborTableBuilder builder(dev);
  expect_tables_equal(builder.build(index, eps, &report), oracle);
  EXPECT_EQ(report.total_pairs, oracle.total_pairs());
  return report;
}

TEST(CsrPipeline, MatchesOracleClustered) {
  const auto points = data::generate_sky_survey(4000, 71);
  build_and_check(points, 0.3f);
}

TEST(CsrPipeline, MatchesOracleUniform) {
  const auto points = data::generate_uniform(4000, 72, 10.0f, 10.0f);
  build_and_check(points, 0.4f);
}

TEST(CsrPipeline, MatchesOracleDegenerateOneCell) {
  // Every point identical: the entire dataset lands in one grid cell and
  // every point neighbors every point (n^2 pairs) — worst-case skew for
  // batching, counting, and the CSR offsets.
  const std::vector<Point2> points(600, Point2{1.0f, 1.0f});
  build_and_check(points, 0.5f);
}

TEST(CsrPipeline, OverflowSplitsRecoverWithCsr) {
  // Sabotage the estimate so the planned buffer is ~50x too small: the
  // count pass detects the exact overflow before any fill work and the
  // batch splits recursively until everything fits.
  const auto points = data::generate_space_weather(3000, 73);
  const float eps = 0.3f;
  const GridIndex<Point2> index = build_grid_index(points, eps);
  const NeighborTable oracle = build_neighbor_table_host(index, eps);
  cudasim::Device dev({}, fast_options());
  BatchPolicy policy;
  policy.estimated_total_override = oracle.total_pairs() / 50 + 1;
  BuildReport report;
  NeighborTableBuilder builder(dev, policy);
  expect_tables_equal(builder.build(index, eps, &report), oracle);
  EXPECT_GT(report.overflow_splits, 0u);
  EXPECT_EQ(report.total_pairs, oracle.total_pairs());
}

TEST(CsrPipeline, ShipsValuesOnlyAndRunsNoSort) {
  // Dense enough (~30 neighbors per point) that the per-point offsets
  // array is small against the values; sparse data dilutes the D2H win
  // because offsets cost 4 bytes per point regardless of degree.
  const auto points = data::generate_uniform(4000, 74, 10.0f, 10.0f);
  const BuildReport csr = build_and_check(points, 0.5f);
  // A (key, value) pair list would ship 8 bytes per pair; CSR ships
  // 4-byte values plus a small per-point offsets array.
  EXPECT_LT(csr.d2h_bytes, csr.total_pairs * sizeof(NeighborPair) * 6 / 10);
  // The count and fill kernels use no result-set atomics: what remains is
  // the estimation kernel's per-thread tally.
  EXPECT_LT(csr.atomic_ops * 100, csr.total_pairs);
  // No device sort runs (and no modeled sort time is charged).
  EXPECT_EQ(csr.sort_modeled_seconds, 0.0);
  EXPECT_GT(csr.scan_modeled_seconds, 0.0);
}

}  // namespace
}  // namespace hdbscan
