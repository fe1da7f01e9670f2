// Multi-scale structure exploration with OPTICS on top of the hybrid
// pipeline: one GPU-built neighbor table at eps_max, one OPTICS ordering,
// then DBSCAN-equivalent clusterings for any smaller eps extracted in
// microseconds — the full two-parameter "Computer-Aided Discovery" sweep
// from a single device pass.
//
//   $ ./build/examples/optics_explorer
#include <cstdio>
#include <vector>

#include "analysis/cluster_analysis.hpp"
#include "core/neighbor_table_builder.hpp"
#include "common/timer.hpp"
#include "cudasim/device.hpp"
#include "data/datasets.hpp"
#include "dbscan/optics.hpp"
#include "index/grid_index.hpp"

int main() {
  using namespace hdbscan;

  cudasim::Device device;
  const std::vector<Point2> points = data::make_dataset("SW1", 20'000);
  const float eps_max = 1.0f;
  const int minpts = 8;

  std::printf("SW1-like dataset, %zu points. Density map:\n\n",
              points.size());
  std::printf("%s\n", analysis::ascii_density_map(points, 64, 20).c_str());

  // One device pass: grid index + batched neighbor table at eps_max.
  WallTimer table_timer;
  const GridIndex<Point2> index = build_grid_index(points, eps_max);
  NeighborTableBuilder builder(device);
  const NeighborTable table = builder.build(index, eps_max);
  std::printf("neighbor table at eps=%.2f: %zu pairs in %.3f s\n", eps_max,
              table.total_pairs(), table_timer.seconds());

  // One OPTICS ordering serves every eps' <= eps_max.
  WallTimer optics_timer;
  const OpticsResult ordering = optics(index.points, table, eps_max, minpts);
  std::printf("OPTICS ordering (minpts=%d) in %.3f s\n\n", minpts,
              optics_timer.seconds());

  std::printf("%8s %10s %10s %14s\n", "eps'", "clusters", "noise",
              "extract time");
  for (const float eps_prime : {0.2f, 0.35f, 0.5f, 0.7f, 1.0f}) {
    WallTimer extract_timer;
    const ClusterResult clusters =
        extract_dbscan_clustering(ordering, eps_prime);
    const double extract_s = extract_timer.seconds();
    std::printf("%8.2f %10d %10zu %11.1f us\n", eps_prime,
                clusters.num_clusters, clusters.noise_count(),
                extract_s * 1e6);
  }

  // Show the clustering at a mid scale, rendered in the terminal.
  const ClusterResult mid = extract_dbscan_clustering(ordering, 0.5f);
  std::printf("\nclusters at eps'=0.50 ('a' = largest, '.' = noise):\n\n%s\n",
              analysis::ascii_cluster_map(index.points, mid, 64, 20).c_str());

  const auto stats = analysis::compute_cluster_stats(index.points, mid);
  std::printf("top clusters by size:\n");
  for (std::size_t i = 0; i < stats.size() && i < 5; ++i) {
    std::printf("  #%zu: %6zu pts, centroid (%.1f, %.1f), rms radius %.2f\n",
                i, stats[i].size, stats[i].centroid.x, stats[i].centroid.y,
                stats[i].rms_radius);
  }
  return 0;
}
