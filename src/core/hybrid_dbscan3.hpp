// HYBRID-DBSCAN in three dimensions: the grid index and kernels written
// once over the point type (GridIndex<Point3>, GridView<Point3>) feed the
// same neighbor table, so the host-side clustering, reuse and comparison
// machinery is shared with the 2-D pipeline unchanged. 3-D has no
// batching ladder, streaming or sharding yet: each call is one
// synchronous single-batch build.
#pragma once

#include <span>

#include "core/neighbor_table_builder.hpp"  // BuildReport
#include "cudasim/device.hpp"
#include "dbscan/cluster_result.hpp"
#include "dbscan/neighbor_table.hpp"
#include "index/grid_index.hpp"

namespace hdbscan {

/// Builds the eps-neighbor table for a 3-D dataset on the device:
/// count pass (exact sizing) -> scan -> fill kernel -> D2H. Each pair is
/// distance-tested once, only forward rows cross PCIe, and one host
/// transpose restores the full table. Staging and scratch come from the
/// device's BufferPool, so the pinned page-lock cost is paid once per
/// process, not per call. `report` fills total_pairs, table_seconds,
/// modeled_table_seconds, kernel_flops (both passes) and expand_seconds.
NeighborTable build_neighbor_table_device3(cudasim::Device& device,
                                           const GridIndex<Point3>& index,
                                           float eps,
                                           BuildReport* report = nullptr);

/// End-to-end 3-D HYBRID-DBSCAN; labels are returned in input order.
/// `quality` selects the exact pipeline (default) or the cell-graph mode
/// (eps/sqrt(3) re-binning in core/cell_graph; no device work at all).
ClusterResult hybrid_dbscan3(cudasim::Device& device,
                             std::span<const Point3> points, float eps,
                             int minpts, BuildReport* report = nullptr,
                             ClusterQuality quality = ClusterQuality::kExact);

/// Fused no-table 3-D clustering (see core/fused_clustering for the 2-D
/// orchestrated version): one traversal kernel counts degrees and unions
/// both-core edges straight into the union-find, so neither the CSR
/// passes nor the value transfer run and T is never materialized. This is
/// a one-shot synchronous launch; labels are bit-identical to
/// hybrid_dbscan3. `report`: total_pairs counts tested cross pairs (edges
/// seen), kernel_flops the traversal's distance tests; expand_seconds
/// stays 0 (nothing to transpose).
ClusterResult fused_dbscan3(cudasim::Device& device,
                            std::span<const Point3> points, float eps,
                            int minpts, BuildReport* report = nullptr);

}  // namespace hdbscan
