// DBSCAN (Ester et al. 1996), paper Algorithm 1, in three flavours:
//
//  * dbscan_rtree — the reference implementation the paper compares
//    against: sequential DBSCAN whose NeighborSearch queries an R-tree.
//    Optionally charges search time to an accumulator (Table I).
//  * dbscan_grid — same algorithm over the grid index (host-only path).
//  * dbscan_neighbor_table — the modified DBSCAN of Algorithm 4 line 9:
//    NeighborSearch is a lookup into the precomputed neighbor table T, so
//    it takes (T, minpts) instead of (eps, minpts).
//
// All flavours produce identical clusterings on core points and noise. A
// border point (non-core, with a core neighbor) may belong to several
// clusters; each flavour picks one by a fixed rule. The BFS flavours here
// give it the smallest cluster id among its core neighbors' clusters (the
// first cluster to expand into it); dbscan_minpts_sweep
// (dbscan/minpts_sweep.hpp) gives it the cluster of its highest-degree
// neighbor, ties to the smallest id.
#pragma once

#include <span>

#include "common/timer.hpp"
#include "common/types.hpp"
#include "dbscan/cluster_result.hpp"
#include "dbscan/neighbor_table.hpp"
#include "index/grid_index.hpp"
#include "index/rtree.hpp"

namespace hdbscan {

/// Reference sequential DBSCAN over an R-tree. Labels follow the order of
/// `points`. `search_time` (optional) accumulates NeighborSearch wall time.
ClusterResult dbscan_rtree(std::span<const Point2> points, float eps,
                           int minpts, const RTree& rtree,
                           TimeAccumulator* search_time = nullptr);

/// Convenience overload that builds the R-tree internally.
ClusterResult dbscan_rtree(std::span<const Point2> points, float eps,
                           int minpts, TimeAccumulator* search_time = nullptr);

/// Sequential DBSCAN over the grid index. Labels follow the *index's*
/// point order (index.points); use index.original_ids to map back.
ClusterResult dbscan_grid(const GridIndex<Point2>& index, float eps,
                          int minpts);

/// Modified DBSCAN taking the precomputed neighbor table T and minpts.
/// Labels follow the point ordering T was built from.
ClusterResult dbscan_neighbor_table(const NeighborTable& table, int minpts);

}  // namespace hdbscan
