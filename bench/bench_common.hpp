// Shared bench utilities: device factory, banner, timing helpers.
#pragma once

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/timer.hpp"
#include "core/neighbor_table_builder.hpp"
#include "cudasim/device.hpp"
#include "data/datasets.hpp"
#include "dbscan/dbscan.hpp"
#include "index/grid_index.hpp"

namespace hdbscan::bench {

/// Device in realistic mode: transfer and pinned-allocation throttling on,
/// so wall times include the modeled PCIe behaviour the paper's batching
/// scheme is designed around.
inline cudasim::Device make_device() {
  return cudasim::Device(cudasim::DeviceConfig{}, cudasim::SimulationOptions{});
}

inline void banner(const char* title, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("HDBSCAN_SCALE=%.2f  trials=%d\n", env_scale(), env_trials());
  std::printf("==============================================================\n");
}

/// Loads a named dataset at its scaled default size and prints one line.
inline std::vector<Point2> load(const std::string& name) {
  std::vector<Point2> points = data::make_dataset(name);
  std::printf("  dataset %-6s |D| = %zu (paper: %zu)\n", name.c_str(),
              points.size(), data::dataset_info(name).paper_size);
  return points;
}

/// Runs fn env_trials() times and returns the mean seconds.
template <typename F>
double timed_mean(F&& fn) {
  const int trials = env_trials();
  double total = 0.0;
  for (int t = 0; t < trials; ++t) {
    WallTimer timer;
    fn();
    total += timer.seconds();
  }
  return total / trials;
}

/// One neighbor table for `eps` plus its modeled cost (index build +
/// modeled T construction), for the paper's reuse scheme (§VII-F).
struct ReuseTable {
  NeighborTable table;
  double modeled_table_seconds = 0.0;
};

inline ReuseTable build_reuse_table(cudasim::Device& device,
                                    std::span<const Point2> points,
                                    float eps) {
  WallTimer index_timer;
  const GridIndex<Point2> index = build_grid_index(points, eps);
  const double index_s = index_timer.seconds();
  BuildReport report;
  ReuseTable out;
  out.table = NeighborTableBuilder(device).build(index, eps, &report);
  out.modeled_table_seconds = index_s + report.modeled_table_seconds;
  return out;
}

/// The paper's scheme: one full DBSCAN over T per minpts value, each timed
/// alone. Schedule the durations with makespan_seconds() to model a
/// k-thread host.
inline std::vector<double> time_per_minpts(const NeighborTable& table,
                                           std::span<const int> minpts) {
  std::vector<double> seconds;
  seconds.reserve(minpts.size());
  for (const int m : minpts) {
    WallTimer timer;
    (void)dbscan_neighbor_table(table, m);
    seconds.push_back(timer.seconds());
  }
  return seconds;
}

}  // namespace hdbscan::bench
