// The quality knob (DESIGN.md §16): cell-graph DBSCAN's agreement with
// the exact pipelines on separable data, its routing through the hybrid
// orchestrator, and its refusal of extents the packed cell key cannot
// represent.
#include "common/types.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cell_graph.hpp"
#include "core/hybrid_dbscan.hpp"
#include "cudasim/device.hpp"
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

/// Four dense clusters on a 20-unit grid pitch, ~1 unit across each: at
/// eps = 0.5 every cluster is internally dense and the gaps are > 19
/// units, so exact and cell-graph runs must both recover the same
/// four-way partition (rand index 1 up to stray border points).
std::vector<Point2> separated_clusters(std::size_t per_cluster) {
  const float cx[4] = {5.0f, 25.0f, 5.0f, 25.0f};
  const float cy[4] = {5.0f, 5.0f, 25.0f, 25.0f};
  std::uint64_t s = 0x9e3779b9u;
  const auto jitter = [&s] {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<float>((s >> 33) & 0xffff) / 65536.0f;
  };
  std::vector<Point2> pts;
  pts.reserve(per_cluster * 4);
  for (int c = 0; c < 4; ++c) {
    for (std::size_t i = 0; i < per_cluster; ++i) {
      pts.push_back({cx[c] + jitter(), cy[c] + jitter()});
    }
  }
  return pts;
}

// ---------------------------------------------------------------------------
// Cell-graph mode
// ---------------------------------------------------------------------------

/// Six dense 2x2-unit clusters on a 20-unit pitch: any correct clustering
/// recovers exactly this 6-way partition, so the rand-index check is sharp
/// rather than statistical.
std::vector<Point2> six_separated_clusters(std::size_t n) {
  std::vector<Point2> points;
  points.reserve(n);
  std::uint64_t s = 0xdecafbadu;
  const auto jitter = [&s] {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return 2.0f * static_cast<float>((s >> 33) & 0xffff) / 65536.0f;
  };
  const float cx[6] = {5.0f, 25.0f, 45.0f, 5.0f, 25.0f, 45.0f};
  const float cy[6] = {5.0f, 5.0f, 5.0f, 25.0f, 25.0f, 25.0f};
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % 6;
    points.push_back({cx[c] + jitter(), cy[c] + jitter()});
  }
  return points;
}

TEST(CellGraphMode, MatchesExactOnSeparatedDataAndIsDeterministic) {
  cudasim::Device device{cudasim::DeviceConfig{}, fast_options()};
  const float eps = 0.5f;
  const int minpts = 8;
  const struct {
    std::vector<Point2> points;
    int clusters;
  } cases[] = {{separated_clusters(200), 4},
               {six_separated_clusters(8000), 6}};
  for (const auto& [points, clusters] : cases) {
    SCOPED_TRACE(clusters);
    HybridTimings timings;
    const ClusterResult exact =
        hybrid_dbscan(device, points, eps, minpts, &timings);
    CellGraphReport report;
    const ClusterResult a =
        cell_graph_dbscan(points, eps, minpts, device.config(), &report);
    const ClusterResult b =
        cell_graph_dbscan(points, eps, minpts, device.config());
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_EQ(a.num_clusters, clusters);
    EXPECT_GE(rand_index(a.labels, exact.labels), 0.99);

    // Dense clusters at side eps/sqrt(2): most points must be made core
    // wholesale, and the distance work must be far below the exact pair
    // count.
    EXPECT_GT(report.dense_points, 0u);
    EXPECT_GT(report.dense_cells, 0u);
    EXPECT_LE(report.dense_cells, report.num_cells);
    EXPECT_LT(report.distance_tests, timings.build_report.total_pairs);
    EXPECT_GT(report.modeled_seconds, 0.0);
  }
}

TEST(CellGraphMode, HybridOrchestratorRoutesAndSkipsTheTable) {
  cudasim::Device device{cudasim::DeviceConfig{}, fast_options()};
  const auto points = separated_clusters(100);
  BatchPolicy policy;
  policy.quality = ClusterQuality::kCellGraph;
  HybridTimings timings;
  const ClusterResult via_hybrid =
      hybrid_dbscan(device, points, 0.5f, 8, &timings, policy);
  const ClusterResult direct =
      cell_graph_dbscan(points, 0.5f, 8, device.config());
  EXPECT_EQ(via_hybrid.labels, direct.labels);
  EXPECT_FALSE(timings.build_report.table_materialized);
  EXPECT_GT(timings.modeled_total_seconds, 0.0);
}

TEST(CellGraphMode, FusedModeIsRejected) {
  cudasim::Device device{cudasim::DeviceConfig{}, fast_options()};
  const auto points = separated_clusters(50);
  BatchPolicy policy;
  policy.quality = ClusterQuality::kCellGraph;
  EXPECT_THROW(hybrid_dbscan(device, points, 0.5f, 8, nullptr, policy,
                             ClusterMode::kFused),
               std::invalid_argument);
}

TEST(CellGraphMode, ValidatesInputsAndHandlesEmpty) {
  cudasim::DeviceConfig config;
  const ClusterResult empty =
      cell_graph_dbscan(std::vector<Point2>{}, 0.5f, 4, config);
  EXPECT_EQ(empty.num_clusters, 0);
  EXPECT_TRUE(empty.labels.empty());
  const std::vector<Point2> one{{0.0f, 0.0f}};
  EXPECT_THROW(cell_graph_dbscan(one, 0.0f, 4, config),
               std::invalid_argument);
  EXPECT_THROW(cell_graph_dbscan(one, 0.5f, 0, config),
               std::invalid_argument);
}

TEST(CellGraphMode, RecoversSeparated3dClusters) {
  std::vector<Point3> pts;
  std::uint64_t s = 77;
  const auto jitter = [&s] {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<float>((s >> 33) & 0xffff) / 65536.0f;
  };
  for (int c = 0; c < 2; ++c) {
    const float base = static_cast<float>(c) * 30.0f;
    for (int i = 0; i < 200; ++i) {
      pts.push_back({base + jitter(), base + jitter(), base + jitter()});
    }
  }
  CellGraphReport report;
  const ClusterResult r =
      cell_graph_dbscan3(pts, 0.6f, 8, cudasim::DeviceConfig{}, &report);
  EXPECT_EQ(r.num_clusters, 2);
  EXPECT_EQ(r.noise_count(), 0u);
  // The two generating clusters never mix.
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(r.labels[i], r.labels[0]);
    EXPECT_EQ(r.labels[200 + i], r.labels[200]);
  }
  EXPECT_NE(r.labels[0], r.labels[200]);
  EXPECT_GT(report.dense_points, 0u);
}

// ---------------------------------------------------------------------------
// Wide extents: the packed cell key holds 2^21 cells on x and y and 2^22
// on z. Three points at the origin and three a whole key width further
// along one axis are six noise points at minpts 4; a key that wrapped
// would fold the far trio into the origin's cell and make one cluster.
// ---------------------------------------------------------------------------

/// Coordinate of the middle of cell `cells` at side eps / sqrt(dims).
float cell_offset(double cells, int dims) {
  return static_cast<float>((cells + 0.5) / std::sqrt(dims));  // eps = 1
}

std::vector<Point2> two_trios_2d(float far, int axis) {
  std::vector<Point2> pts;
  for (const float base : {0.0f, far}) {
    for (const float d : {0.0f, 0.1f, 0.2f}) {
      pts.push_back(axis == 0 ? Point2{base + d, 0.0f}
                              : Point2{0.0f, base + d});
    }
  }
  return pts;
}

std::vector<Point3> two_trios_3d(float far, int axis) {
  std::vector<Point3> pts;
  for (const float base : {0.0f, far}) {
    for (const float d : {0.0f, 0.1f, 0.2f}) {
      Point3 p{};
      (axis == 0 ? p.x : (axis == 1 ? p.y : p.z)) = base + d;
      pts.push_back(p);
    }
  }
  return pts;
}

void expect_key_limit_error(const auto& call) {
  try {
    call();
    ADD_FAILURE() << "wide extent was not refused";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cell key holds at most"),
              std::string::npos)
        << e.what();
  }
}

/// The two trios plus one bad point: it is input id 6.
void expect_non_finite_error(const auto& call) {
  try {
    call();
    ADD_FAILURE() << "non-finite coordinate was not refused";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("input point 6 "), std::string::npos)
        << e.what();
  }
}

TEST(CellGraphWideExtent, RefusesAxesWiderThanTheKey2d) {
  const cudasim::DeviceConfig config;
  for (const int axis : {0, 1}) {
    const auto pts = two_trios_2d(cell_offset(2097152.0, 2), axis);
    expect_key_limit_error(
        [&] { (void)cell_graph_dbscan(pts, 1.0f, 4, config); });
  }
}

TEST(CellGraphWideExtent, RefusesAxesWiderThanTheKey3d) {
  const cudasim::DeviceConfig config;
  const auto wide_x = two_trios_3d(cell_offset(2097152.0, 3), 0);
  expect_key_limit_error(
      [&] { (void)cell_graph_dbscan3(wide_x, 1.0f, 4, config); });
  const auto wide_z = two_trios_3d(cell_offset(4194304.0, 3), 2);
  expect_key_limit_error(
      [&] { (void)cell_graph_dbscan3(wide_z, 1.0f, 4, config); });
}

// NaN, +inf and -inf slip past std::min/max; they must be refused by id
// before the int32 cell cast. A 1e30-wide extent hits the key limit.
TEST(CellGraphWideExtent, RefusesNonFiniteAndHugeCoordinates2d) {
  const cudasim::DeviceConfig config;
  const float inf = std::numeric_limits<float>::infinity();
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(), inf,
                          -inf}) {
    for (const int axis : {0, 1}) {
      auto pts = two_trios_2d(1.0f, axis);
      pts.push_back(axis == 0 ? Point2{bad, 0.0f} : Point2{0.0f, bad});
      expect_non_finite_error(
          [&] { (void)cell_graph_dbscan(pts, 1.0f, 4, config); });
    }
  }
  for (const int axis : {0, 1}) {
    expect_key_limit_error([&] {
      (void)cell_graph_dbscan(two_trios_2d(1e30f, axis), 1.0f, 4, config);
    });
  }
}

TEST(CellGraphWideExtent, RefusesNonFiniteAndHugeCoordinates3d) {
  const cudasim::DeviceConfig config;
  const float inf = std::numeric_limits<float>::infinity();
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(), inf,
                          -inf}) {
    for (const int axis : {0, 1, 2}) {
      auto pts = two_trios_3d(1.0f, axis);
      Point3 p{};
      (axis == 0 ? p.x : (axis == 1 ? p.y : p.z)) = bad;
      pts.push_back(p);
      expect_non_finite_error(
          [&] { (void)cell_graph_dbscan3(pts, 1.0f, 4, config); });
    }
  }
  for (const int axis : {0, 1, 2}) {
    expect_key_limit_error([&] {
      (void)cell_graph_dbscan3(two_trios_3d(1e30f, axis), 1.0f, 4, config);
    });
  }
}

TEST(CellGraphWideExtent, ExtentsWithinTheKeyStayExact) {
  const cudasim::DeviceConfig config;
  const ClusterResult r2 = cell_graph_dbscan(
      two_trios_2d(cell_offset(1048576.0, 2), 0), 1.0f, 4, config);
  EXPECT_EQ(r2.labels, std::vector<std::int32_t>(6, kNoise));
  // z has one more key bit than x and y: 2^21 cells still fit there.
  const ClusterResult r3 = cell_graph_dbscan3(
      two_trios_3d(cell_offset(2097152.0, 3), 2), 1.0f, 4, config);
  EXPECT_EQ(r3.labels, std::vector<std::int32_t>(6, kNoise));
}

}  // namespace
}  // namespace hdbscan
