#include "data/generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "data/datasets.hpp"
#include "index/grid_index.hpp"

namespace hdbscan {
namespace {

TEST(Generators, RequestedSizeProduced) {
  EXPECT_EQ(data::generate_space_weather(1234, 1).size(), 1234u);
  EXPECT_EQ(data::generate_sky_survey(777, 2).size(), 777u);
  EXPECT_EQ(data::generate_uniform(10, 3, 1.0f, 1.0f).size(), 10u);
}

TEST(Generators, DeterministicPerSeed) {
  const auto a = data::generate_space_weather(500, 42);
  const auto b = data::generate_space_weather(500, 42);
  EXPECT_EQ(a, b);
  const auto c = data::generate_space_weather(500, 43);
  EXPECT_NE(a, c);
}

TEST(Generators, PointsStayInDomain) {
  data::SpaceWeatherParams swp;
  swp.width = 12.0f;
  swp.height = 7.0f;
  for (const Point2& p : data::generate_space_weather(5000, 5, swp)) {
    EXPECT_GE(p.x, 0.0f);
    EXPECT_LE(p.x, 12.0f);
    EXPECT_GE(p.y, 0.0f);
    EXPECT_LE(p.y, 7.0f);
  }
  data::SkySurveyParams ssp;
  ssp.width = 9.0f;
  ssp.height = 4.0f;
  for (const Point2& p : data::generate_sky_survey(5000, 6, ssp)) {
    EXPECT_GE(p.x, 0.0f);
    EXPECT_LE(p.x, 9.0f);
    EXPECT_GE(p.y, 0.0f);
    EXPECT_LE(p.y, 4.0f);
  }
}

TEST(Generators, SpaceWeatherIsMoreSkewedThanSkySurvey) {
  // The property the paper's kernel comparison hinges on: SW- piles far
  // more points into its densest grid cell than SDSS- at equal |D|.
  const std::size_t n = 20000;
  const float eps = 0.25f;
  data::SpaceWeatherParams swp;  // same 35x35 default domain for both
  data::SkySurveyParams ssp;
  const GridIndex<Point2> sw =
      build_grid_index(data::generate_space_weather(n, 7, swp), eps);
  const GridIndex<Point2> sdss =
      build_grid_index(data::generate_sky_survey(n, 8, ssp), eps);
  EXPECT_GT(sw.max_cell_occupancy, 4 * sdss.max_cell_occupancy);
  // ... and spreads over fewer non-empty cells.
  EXPECT_LT(sw.nonempty_cells.size(), sdss.nonempty_cells.size());
}

TEST(Generators, BlobsCarryGroundTruthLabels) {
  std::vector<int> labels;
  const auto points =
      data::generate_gaussian_blobs(1000, 9, 4, 0.1f, 10.0f, 10.0f, 0.25,
                                    &labels);
  ASSERT_EQ(labels.size(), points.size());
  std::size_t noise = 0;
  for (const int l : labels) {
    EXPECT_GE(l, -1);
    EXPECT_LT(l, 4);
    noise += (l == -1);
  }
  EXPECT_NEAR(static_cast<double>(noise), 250.0, 60.0);
}

TEST(Datasets, RegistryHasPaperDatasets) {
  const auto& reg = data::dataset_registry();
  ASSERT_EQ(reg.size(), 5u);
  EXPECT_EQ(data::dataset_info("SW1").paper_size, 1'864'620u);
  EXPECT_EQ(data::dataset_info("SDSS3").paper_size, 15'228'633u);
  EXPECT_TRUE(data::dataset_info("SW4").skewed);
  EXPECT_FALSE(data::dataset_info("SDSS2").skewed);
}

TEST(Datasets, SizeRatiosTrackThePaper) {
  const auto& sw1 = data::dataset_info("SW1");
  const auto& sdss3 = data::dataset_info("SDSS3");
  const double paper_ratio = static_cast<double>(sdss3.paper_size) /
                             static_cast<double>(sw1.paper_size);
  const double our_ratio = static_cast<double>(sdss3.default_size) /
                           static_cast<double>(sw1.default_size);
  EXPECT_NEAR(our_ratio, paper_ratio, 0.05 * paper_ratio);
}

TEST(Datasets, UnknownNameThrows) {
  EXPECT_THROW(data::dataset_info("SW9"), std::invalid_argument);
  EXPECT_THROW(data::make_dataset("nope"), std::invalid_argument);
}

TEST(Datasets, ExplicitSizeOverridesDefault) {
  EXPECT_EQ(data::make_dataset("SW1", 2500).size(), 2500u);
}

TEST(Datasets, MakeDatasetIsDeterministic) {
  EXPECT_EQ(data::make_dataset("SDSS1", 1000), data::make_dataset("SDSS1", 1000));
  EXPECT_NE(data::make_dataset("SDSS1", 1000), data::make_dataset("SDSS2", 1000));
}

}  // namespace
}  // namespace hdbscan
