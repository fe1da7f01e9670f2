#include "core/estimator.hpp"

#include <gtest/gtest.h>

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

TEST(Estimator, FullFractionIsExact) {
  const auto points = data::generate_sky_survey(2000, 41);
  const float eps = 0.3f;
  const GridIndex<Point2> index = build_grid_index(points, eps);
  const NeighborTable table = build_neighbor_table_host(index, eps);
  cudasim::Device dev({}, fast_options());
  const auto est =
      estimate_result_size(dev, GridView<Point2>::of(index), eps,
                           /*fraction=*/1.0);
  EXPECT_EQ(est.sample_stride, 1u);
  EXPECT_EQ(est.sampled_pairs, table.total_pairs());
  EXPECT_EQ(est.estimated_total, table.total_pairs());
}

TEST(Estimator, OnePercentSampleWithinTolerance) {
  // 1% sampling over spatially sorted data: the paper relies on this being
  // accurate enough that alpha = 5-10% covers the error.
  const auto points = data::generate_space_weather(60000, 42);
  const float eps = 0.25f;
  const GridIndex<Point2> index = build_grid_index(points, eps);
  const NeighborTable table = build_neighbor_table_host(index, eps);
  cudasim::Device dev({}, fast_options());
  const auto est =
      estimate_result_size(dev, GridView<Point2>::of(index), eps,
                           /*fraction=*/0.01);
  EXPECT_EQ(est.sample_stride, 100u);
  const auto actual = static_cast<double>(table.total_pairs());
  EXPECT_NEAR(static_cast<double>(est.estimated_total), actual, 0.15 * actual);
}

TEST(Estimator, TinyDatasetFallsBackToCensus) {
  const auto points = data::generate_uniform(50, 43, 3.0f, 3.0f);
  const GridIndex<Point2> index = build_grid_index(points, 0.5f);
  cudasim::Device dev({}, fast_options());
  const auto est = estimate_result_size(dev, GridView<Point2>::of(index), 0.5f,
                                        0.01);
  // stride capped at |D|: at least one sample point.
  EXPECT_LE(est.sample_stride, 50u);
  EXPECT_GT(est.sampled_pairs, 0u);
}

TEST(Estimator, RejectsBadFraction) {
  const auto points = data::generate_uniform(100, 44, 3.0f, 3.0f);
  const GridIndex<Point2> index = build_grid_index(points, 0.5f);
  cudasim::Device dev({}, fast_options());
  EXPECT_THROW(estimate_result_size(dev, GridView<Point2>::of(index), 0.5f,
                                    0.0),
               std::invalid_argument);
  EXPECT_THROW(estimate_result_size(dev, GridView<Point2>::of(index), 0.5f,
                                    1.5),
               std::invalid_argument);
}

TEST(Estimator, GrowsWithEps) {
  const auto points = data::generate_sky_survey(20000, 45);
  cudasim::Device dev({}, fast_options());
  std::uint64_t prev = 0;
  for (const float eps : {0.1f, 0.3f, 0.6f}) {
    const GridIndex<Point2> index = build_grid_index(points, eps);
    const auto est =
        estimate_result_size(dev, GridView<Point2>::of(index), eps, 0.01);
    EXPECT_GT(est.estimated_total, prev);
    prev = est.estimated_total;
  }
}

}  // namespace
}  // namespace hdbscan
