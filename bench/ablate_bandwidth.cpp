// Ablation: host-GPU link bandwidth (paper §VIII future work).
//
// "The performance of HYBRID-DBSCAN is likely to improve over CPU
// algorithms as host-GPU bandwidth increases (e.g., with NVLink)." We
// sweep the modeled pinned-transfer rate from PCIe 2.0 (6 GB/s) down to a
// degraded link and up through NVLink-class rates, and measure the wall
// time of the batched neighbor-table construction.
#include <cstdio>

#include "bench_common.hpp"
#include "core/neighbor_table_builder.hpp"
#include "index/grid_index.hpp"

int main() {
  using namespace hdbscan;
  bench::banner("Ablation — host-GPU bandwidth sweep",
                "paper §VIII (PCIe 2.0 -> NVLink prediction)");

  const auto points = bench::load("SW4");
  const float eps = 0.3f;
  const GridIndex<Point2> index = build_grid_index(points, eps);

  std::printf("\n  %14s %12s %16s %14s\n", "pinned (GB/s)", "wall (s)",
              "transfer (s)", "pairs");
  for (const double gbps : {1.5, 3.0, 6.0, 12.0, 25.0, 50.0, 100.0}) {
    cudasim::DeviceConfig cfg;
    cfg.pcie_pinned_gbps = gbps;
    cfg.pcie_pageable_gbps = gbps / 2.0;
    cudasim::Device device(cfg, cudasim::SimulationOptions{});
    NeighborTableBuilder builder(device);
    BuildReport report;
    WallTimer t;
    (void)builder.build(index, eps, &report);
    std::printf("  %14.1f %12.3f %16.3f %14llu\n", gbps, t.seconds(),
                device.metrics().transfer_seconds,
                static_cast<unsigned long long>(report.total_pairs));
  }
  std::printf(
      "\nExpected shape: wall time falls as the link speeds up, then"
      " flattens once\nkernel execution (not the transfer) is the"
      " bottleneck — the paper's NVLink\nprediction. 'transfer (s)' is the"
      " summed modeled link time (overlapped across\nstreams, so wall"
      " shrinks less than transfer does).\n");
  return 0;
}
