#include "dbscan/table_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "data/generators.hpp"
#include "dbscan/dbscan.hpp"
#include "index/grid_index.hpp"

namespace hdbscan {
namespace {

class TableIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "hdbscan_table_io";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const char* name) const { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(TableIoTest, RoundTripPreservesEveryNeighborhood) {
  const auto points = data::generate_space_weather(
      2000, 71, {.width = 8.0f, .height = 8.0f});
  const float eps = 0.35f;
  const GridIndex<Point2> index = build_grid_index(points, eps);
  const NeighborTable table = build_neighbor_table_host(index, eps);

  save_neighbor_table(path("t.bin"), table, eps);
  TableHeader header;
  const NeighborTable loaded = load_neighbor_table(path("t.bin"), &header);

  EXPECT_FLOAT_EQ(header.eps, eps);
  EXPECT_EQ(header.num_points, table.num_points());
  EXPECT_EQ(header.total_pairs, table.total_pairs());
  ASSERT_EQ(loaded.num_points(), table.num_points());
  for (PointId i = 0; i < table.num_points(); ++i) {
    const auto a = table.neighbors(i);
    const auto b = loaded.neighbors(i);
    ASSERT_EQ(std::vector<PointId>(a.begin(), a.end()),
              std::vector<PointId>(b.begin(), b.end()))
        << "point " << i;
  }
}

TEST_F(TableIoTest, LoadedTableClustersIdentically) {
  const auto points = data::generate_sky_survey(
      1500, 72, {.width = 8.0f, .height = 8.0f});
  const float eps = 0.4f;
  const GridIndex<Point2> index = build_grid_index(points, eps);
  const NeighborTable table = build_neighbor_table_host(index, eps);
  save_neighbor_table(path("t.bin"), table, eps);
  const NeighborTable loaded = load_neighbor_table(path("t.bin"));
  for (const int minpts : {2, 5, 20}) {
    EXPECT_EQ(dbscan_neighbor_table(table, minpts).labels,
              dbscan_neighbor_table(loaded, minpts).labels);
  }
}

TEST_F(TableIoTest, EmptyTableRoundTrips) {
  const NeighborTable table(10);
  save_neighbor_table(path("empty.bin"), table, 0.1f);
  const NeighborTable loaded = load_neighbor_table(path("empty.bin"));
  EXPECT_EQ(loaded.num_points(), 10u);
  EXPECT_EQ(loaded.total_pairs(), 0u);
}

TEST_F(TableIoTest, RejectsBadMagic) {
  std::ofstream out(path("bad.bin"), std::ios::binary);
  out << "JUNKJUNKJUNKJUNKJUNK";
  out.close();
  EXPECT_THROW(load_neighbor_table(path("bad.bin")), std::runtime_error);
}

TEST_F(TableIoTest, RejectsTruncatedFile) {
  const auto points = data::generate_uniform(200, 73, 3.0f, 3.0f);
  const GridIndex<Point2> index = build_grid_index(points, 0.3f);
  save_neighbor_table(path("trunc.bin"),
                      build_neighbor_table_host(index, 0.3f), 0.3f);
  const auto full = std::filesystem::file_size(path("trunc.bin"));
  std::filesystem::resize_file(path("trunc.bin"), full / 2);
  EXPECT_THROW(load_neighbor_table(path("trunc.bin")), std::runtime_error);
}

TEST_F(TableIoTest, MissingFileThrows) {
  EXPECT_THROW(load_neighbor_table(path("missing.bin")), std::runtime_error);
}

}  // namespace
}  // namespace hdbscan
