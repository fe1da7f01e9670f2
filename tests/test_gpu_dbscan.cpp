#include "gpu/gpu_dbscan.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

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

class GpuDbscanSweep
    : public ::testing::TestWithParam<std::tuple<int, float, int>> {};

TEST_P(GpuDbscanSweep, EquivalentToSequentialDbscan) {
  const auto [family, eps, minpts] = GetParam();
  const std::size_t n = 2500;
  const std::vector<Point2> points =
      family == 0 ? data::generate_sky_survey(n, 95,
                                              {.width = 10.0f, .height = 10.0f})
                  : data::generate_space_weather(
                        n, 96, {.width = 10.0f, .height = 10.0f});
  const GridIndex<Point2> index = build_grid_index(points, eps);
  const NeighborTable table = build_neighbor_table_host(index, eps);

  cudasim::Device device({}, fast_options());
  gpu::GpuDbscanReport report;
  const ClusterResult in_gpu = gpu_dbscan(device, index, eps, minpts, &report);
  const ClusterResult sequential = dbscan_neighbor_table(table, minpts);

  const auto outcome =
      compare_clusterings(sequential, in_gpu, table, minpts);
  EXPECT_TRUE(outcome.equivalent)
      << "family=" << family << " eps=" << eps << " minpts=" << minpts
      << ": " << outcome.diagnostic;
  EXPECT_EQ(sequential.num_clusters, in_gpu.num_clusters);
  EXPECT_GT(report.propagation_iterations, 0u);
  EXPECT_GT(report.modeled_seconds, 0.0);
  EXPECT_EQ(report.d2h_bytes, index.size() * sizeof(std::uint32_t));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GpuDbscanSweep,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values(0.25f, 0.5f),
                       ::testing::Values(3, 8, 24)));

TEST(GpuDbscan, CorePointCountMatchesTable) {
  const auto points = data::generate_sky_survey(
      1500, 97, {.width = 8.0f, .height = 8.0f});
  const float eps = 0.4f;
  const int minpts = 6;
  const GridIndex<Point2> index = build_grid_index(points, eps);
  const NeighborTable table = build_neighbor_table_host(index, eps);
  std::uint64_t expected_cores = 0;
  for (PointId i = 0; i < table.num_points(); ++i) {
    expected_cores +=
        table.neighbor_count(i) >= static_cast<std::uint32_t>(minpts);
  }
  cudasim::Device device({}, fast_options());
  gpu::GpuDbscanReport report;
  gpu_dbscan(device, index, eps, minpts, &report);
  EXPECT_EQ(report.core_points, expected_cores);
}

TEST(GpuDbscan, ChainTopologyConvergesInFewIterations) {
  // A long 1-D chain is the propagation worst case: the min label must
  // travel the whole chain. Pointer jumping (plus the executor's in-pass
  // visibility, which real GPUs also exhibit between blocks) keeps the
  // iteration count far below the chain length.
  std::vector<Point2> points;
  for (int i = 0; i < 4000; ++i) {
    points.push_back({0.09f * static_cast<float>(i), 0.0f});
  }
  const GridIndex<Point2> index = build_grid_index(points, 0.1f);
  cudasim::Device device({}, fast_options());
  gpu::GpuDbscanReport report;
  const ClusterResult r = gpu_dbscan(device, index, 0.1f, 2, &report);
  EXPECT_EQ(r.num_clusters, 1);
  EXPECT_EQ(r.noise_count(), 0u);
  EXPECT_GE(report.propagation_iterations, 2u);  // at least reach fixpoint
  EXPECT_LT(report.propagation_iterations, 64u);  // never O(chain length)
}

TEST(GpuDbscan, AllNoise) {
  const auto points = data::generate_uniform(300, 98, 100.0f, 100.0f);
  const GridIndex<Point2> index = build_grid_index(points, 0.1f);
  cudasim::Device device({}, fast_options());
  const ClusterResult r = gpu::gpu_dbscan(device, index, 0.1f, 5);
  EXPECT_EQ(r.num_clusters, 0);
  EXPECT_EQ(r.noise_count(), points.size());
}

TEST(GpuDbscan, DeviceMemoryReleased) {
  const auto points = data::generate_uniform(2000, 99, 10.0f, 10.0f);
  const GridIndex<Point2> index = build_grid_index(points, 0.3f);
  cudasim::Device device({}, fast_options());
  gpu::gpu_dbscan(device, index, 0.3f, 4);
  EXPECT_EQ(device.used_global_bytes(), 0u);
}

}  // namespace
}  // namespace hdbscan
