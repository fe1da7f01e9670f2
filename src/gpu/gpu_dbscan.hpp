// In-GPU DBSCAN baseline (the approach family the paper contrasts with:
// CUDA-DClust, G-DBSCAN, Mr. Scan — cluster ON the device, then resolve).
//
// Pipeline (everything device-resident until the final label transfer):
//   1. core kernel      — thread per point counts |N_eps| against minpts;
//   2. seed kernel      — every core point's label is initialized to its id;
//   3. propagation      — iterated min-label kernels over core-core edges
//                         (Shiloach-Vishkin-style component labeling; this
//                         is the device-side equivalent of the subcluster
//                         merge step of the cited systems);
//   4. border kernel    — non-core points adopt the smallest core
//                         neighbor's label;
//   5. D2H              — only |D| labels cross the bus (the selling point
//                         of in-GPU clustering: tiny transfers).
//
// The trade-off the paper's evaluation exploits: this baseline re-runs the
// whole pipeline for every (eps, minpts) variant, whereas HYBRID-DBSCAN
// reuses T across minpts values and pipelines T construction across eps
// values. bench/baseline_gpu_dbscan regenerates that comparison.
#pragma once

#include <cstdint>

#include "cudasim/device.hpp"
#include "dbscan/cluster_result.hpp"
#include "index/grid_index.hpp"

namespace hdbscan::gpu {

struct GpuDbscanReport {
  std::uint32_t propagation_iterations = 0;
  std::uint64_t core_points = 0;
  double modeled_seconds = 0.0;  ///< summed K20c model over every phase
  double wall_seconds = 0.0;     ///< simulator wall time
  std::uint64_t d2h_bytes = 0;   ///< labels only
};

/// Runs in-GPU DBSCAN for one parameterization. The returned labels are in
/// the *index's* point order (like dbscan_grid); map through
/// index.original_ids for input order. Valid DBSCAN result: exact on cores
/// and noise, borders follow the deterministic smallest-label rule.
ClusterResult gpu_dbscan(cudasim::Device& device,
                         const GridIndex<Point2>& index,
                         float eps, int minpts,
                         GpuDbscanReport* report = nullptr);

}  // namespace hdbscan::gpu
