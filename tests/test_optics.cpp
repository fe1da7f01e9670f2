#include "dbscan/optics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "data/generators.hpp"
#include "dbscan/dbscan.hpp"
#include "index/grid_index.hpp"

namespace hdbscan {
namespace {

struct OpticsFixture {
  explicit OpticsFixture(std::size_t n = 2000, float eps_in = 0.6f,
                         int minpts_in = 5, std::uint64_t seed = 31) {
    points = data::generate_gaussian_blobs(n, seed, 8, 0.25f, 15.0f, 15.0f,
                                           0.15);
    eps = eps_in;
    minpts = minpts_in;
    index = build_grid_index(points, eps);
    table = build_neighbor_table_host(index, eps);
    result = optics(index.points, table, eps, minpts);
  }
  std::vector<Point2> points;
  float eps;
  int minpts;
  GridIndex<Point2> index;
  NeighborTable table;
  OpticsResult result;
};

TEST(Optics, OrderIsPermutation) {
  const OpticsFixture f;
  ASSERT_EQ(f.result.order.size(), f.points.size());
  std::vector<PointId> sorted = f.result.order;
  std::sort(sorted.begin(), sorted.end());
  for (PointId i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Optics, CoreDistanceMatchesDefinition) {
  const OpticsFixture f;
  for (PointId i = 0; i < f.table.num_points(); i += 17) {
    const auto neighbors = f.table.neighbors(i);
    if (neighbors.size() < static_cast<std::size_t>(f.minpts)) {
      EXPECT_EQ(f.result.core_distance[i], kUndefinedDistance);
      continue;
    }
    std::vector<float> dists;
    for (const PointId j : neighbors) {
      dists.push_back(dist(f.index.points[i], f.index.points[j]));
    }
    std::sort(dists.begin(), dists.end());
    EXPECT_FLOAT_EQ(f.result.core_distance[i],
                    dists[static_cast<std::size_t>(f.minpts - 1)]);
    EXPECT_LE(f.result.core_distance[i], f.eps);
  }
}

TEST(Optics, ReachabilityNeverBelowCoreDistanceOfPredecessors) {
  const OpticsFixture f;
  for (PointId i = 0; i < f.points.size(); ++i) {
    const float r = f.result.reachability[i];
    if (r == kUndefinedDistance) continue;
    // Reachability is max(core-dist <= eps, dist <= eps) for some core,
    // so it can never exceed eps.
    EXPECT_LE(r, f.eps + 1e-5f);
    EXPECT_GT(r, 0.0f);
  }
}

TEST(Optics, ExtractionAtFullEpsMatchesDbscanOnCores) {
  const OpticsFixture f;
  const ClusterResult extracted = extract_dbscan_clustering(f.result, f.eps);
  const ClusterResult reference = dbscan_neighbor_table(f.table, f.minpts);
  // Exact agreement on core points (extraction may demote a few border
  // points to noise — an inherent property of ExtractDBSCAN).
  std::map<std::int32_t, std::int32_t> mapping;
  for (PointId i = 0; i < f.points.size(); ++i) {
    if (f.table.neighbor_count(i) < static_cast<std::uint32_t>(f.minpts)) {
      continue;  // not core
    }
    ASSERT_GE(extracted.labels[i], 0) << "core " << i << " unclustered";
    ASSERT_GE(reference.labels[i], 0);
    auto [it, inserted] =
        mapping.try_emplace(reference.labels[i], extracted.labels[i]);
    EXPECT_EQ(it->second, extracted.labels[i]) << "core partition differs";
  }
  EXPECT_EQ(extracted.num_clusters, reference.num_clusters);
}

class OpticsExtractSweep : public ::testing::TestWithParam<float> {};

TEST_P(OpticsExtractSweep, MatchesDbscanCoresAtSmallerEps) {
  const float eps_prime = GetParam();
  const OpticsFixture f(1500, 0.8f, 5, 33);
  const ClusterResult extracted =
      extract_dbscan_clustering(f.result, eps_prime);

  // Reference DBSCAN at eps'.
  const GridIndex<Point2> index_p = build_grid_index(f.points, eps_prime);
  const NeighborTable table_p = build_neighbor_table_host(index_p, eps_prime);
  const ClusterResult ref_indexed = dbscan_neighbor_table(table_p, f.minpts);

  // Compare in a common (input) order on eps'-core points only.
  std::vector<std::int32_t> ref_input(f.points.size());
  std::vector<bool> core_input(f.points.size(), false);
  for (PointId i = 0; i < f.points.size(); ++i) {
    ref_input[index_p.original_ids[i]] = ref_indexed.labels[i];
    core_input[index_p.original_ids[i]] =
        table_p.neighbor_count(i) >= static_cast<std::uint32_t>(f.minpts);
  }
  std::vector<std::int32_t> ext_input(f.points.size());
  for (PointId i = 0; i < f.points.size(); ++i) {
    ext_input[f.index.original_ids[i]] = extracted.labels[i];
  }

  std::map<std::int32_t, std::int32_t> fwd, bwd;
  for (std::size_t i = 0; i < f.points.size(); ++i) {
    if (!core_input[i]) continue;
    ASSERT_GE(ext_input[i], 0) << "eps'-core point " << i << " unclustered";
    auto [f1, in1] = fwd.try_emplace(ref_input[i], ext_input[i]);
    EXPECT_EQ(f1->second, ext_input[i]);
    auto [b1, in2] = bwd.try_emplace(ext_input[i], ref_input[i]);
    EXPECT_EQ(b1->second, ref_input[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(EpsPrimes, OpticsExtractSweep,
                         ::testing::Values(0.2f, 0.35f, 0.5f, 0.65f, 0.8f));

TEST(Optics, RejectsBadInput) {
  const OpticsFixture f(200, 0.4f, 4, 9);
  EXPECT_THROW(optics(std::span<const Point2>(f.index.points.data(), 10),
                      f.table, f.eps, f.minpts),
               std::invalid_argument);
  EXPECT_THROW(optics(f.index.points, f.table, f.eps, 0),
               std::invalid_argument);
  EXPECT_THROW(extract_dbscan_clustering(f.result, f.eps * 2.0f),
               std::invalid_argument);
}

TEST(Optics, MinptsOneEveryPointCore) {
  const OpticsFixture f(300, 0.4f, 1, 10);
  for (PointId i = 0; i < f.points.size(); ++i) {
    // With minpts = 1 the core distance is the self distance: 0.
    EXPECT_EQ(f.result.core_distance[i], 0.0f);
  }
  const ClusterResult extracted = extract_dbscan_clustering(f.result, 0.4f);
  EXPECT_EQ(extracted.noise_count(), 0u);
}

}  // namespace
}  // namespace hdbscan
