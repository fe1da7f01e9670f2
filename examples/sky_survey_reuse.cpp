// Galaxy-survey scenario: fix the linking length (eps) and sweep the
// density threshold (minpts) to pick out structures of different richness
// — the paper's data-reuse scheme (§VII-F): the neighbor table T depends
// only on eps, so it is built once and shared by every minpts run.
//
//   $ ./build/examples/sky_survey_reuse
#include <cstdio>
#include <vector>

#include "common/makespan.hpp"
#include "common/timer.hpp"
#include "core/neighbor_table_builder.hpp"
#include "core/reuse.hpp"
#include "cudasim/device.hpp"
#include "data/datasets.hpp"
#include "dbscan/dbscan.hpp"
#include "index/grid_index.hpp"

int main() {
  using namespace hdbscan;

  cudasim::Device device;
  const std::vector<Point2> points = data::make_dataset("SDSS1");
  std::printf("SDSS1-like galaxy sample: %zu points\n\n", points.size());

  const float eps = 0.5f;
  const std::vector<int> minpts_values{5,  10, 15, 20, 25, 30, 35, 40,
                                       45, 50, 55, 60, 65, 70, 75, 80};

  std::vector<ClusterResult> results;
  const ReuseReport report = cluster_minpts_sweep(
      device, points, eps, minpts_values, /*num_threads=*/4, {}, &results);

  std::printf("one neighbor table (eps=%.2f) built in %.3f s, reused %zu"
              " times:\n\n", eps, report.table_seconds, minpts_values.size());
  std::printf("%8s %10s %14s %16s\n", "minpts", "clusters", "largest",
              "clustered frac");
  for (std::size_t i = 0; i < minpts_values.size(); ++i) {
    const auto sizes = results[i].cluster_sizes();
    std::size_t largest = 0;
    for (const std::size_t s : sizes) largest = std::max(largest, s);
    std::printf("%8d %10d %14zu %15.1f%%\n", minpts_values[i],
                results[i].num_clusters, largest,
                100.0 * static_cast<double>(results[i].clustered_count()) /
                    static_cast<double>(points.size()));
  }

  // The paper's scheme for comparison: one DBSCAN per minpts over one T,
  // each timed alone and scheduled onto 16 modeled host threads.
  const GridIndex<Point2> index = build_grid_index(points, eps);
  const NeighborTable table = NeighborTableBuilder(device).build(index, eps);
  std::vector<double> per_minpts;
  for (const int minpts : minpts_values) {
    WallTimer timer;
    (void)dbscan_neighbor_table(table, minpts);
    per_minpts.push_back(timer.seconds());
  }

  std::printf("\nthroughput: %zu clusterings in %.3f s wall\n",
              minpts_values.size(), report.total_seconds);
  std::printf("  one-pass sweep over T:          %.3f s measured\n",
              report.dbscan_wall_seconds);
  std::printf("  one DBSCAN per minpts, 16 cores: %.3f s modeled\n",
              makespan_seconds(per_minpts, 16));
  std::printf(
      "Reading the sweep: low minpts keeps poor groups and filaments;"
      "\nraising it strips them away until only rich cluster cores"
      " survive.\n");
  return 0;
}
