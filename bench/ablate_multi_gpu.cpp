// Ablation: multi-GPU neighbor-table construction (the scaling direction
// of Mr. Scan, the paper's citation [7]: a tree-based network of GPGPU
// nodes). The index is replicated per device and batches are interleaved
// across devices x streams; the modeled build time should scale down until
// fixed costs (index upload, estimation, host appends) dominate.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/neighbor_table_builder.hpp"
#include "index/grid_index.hpp"

int main() {
  using namespace hdbscan;
  bench::banner("Ablation — multi-GPU table construction",
                "paper §II-B [7] (Mr. Scan's GPU-per-node scaling)");

  const auto points = bench::load("SDSS3");
  const float eps = 0.11f;
  const GridIndex<Point2> index = build_grid_index(points, eps);

  std::printf("\n  %8s %14s %12s %10s\n", "devices", "modeled (s)",
              "batches", "speedup");
  double baseline = 0.0;
  for (const int num_devices : {1, 2, 4, 8}) {
    std::vector<std::unique_ptr<cudasim::Device>> devices;
    std::vector<cudasim::Device*> ptrs;
    for (int d = 0; d < num_devices; ++d) {
      devices.push_back(std::make_unique<cudasim::Device>());
      ptrs.push_back(devices.back().get());
    }
    NeighborTableBuilder builder(ptrs);
    BuildReport report;
    (void)builder.build(index, eps, &report);
    if (num_devices == 1) baseline = report.modeled_table_seconds;
    std::printf("  %8d %14.3f %12u %9.2fx\n", num_devices,
                report.modeled_table_seconds, report.plan.num_batches,
                baseline / report.modeled_table_seconds);
  }
  std::printf(
      "\nExpected shape: near-linear modeled speedup for the device-bound"
      " portion,\nflattening as the replicated-index upload and host-side"
      " table construction\nbecome the bottleneck (Amdahl).\n");
  return 0;
}
