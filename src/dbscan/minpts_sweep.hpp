// Every minpts from one pass over the neighbor table T: the union-find
// DBSCAN of Wang, Gu and Shun ("Theoretically-Efficient and Practical
// Parallel DBSCAN"), extended across thresholds.
//
// Core sets are nested in minpts: p is core at m iff |N(p)| >= m. So one
// disjoint-set forest grown in *descending* minpts covers every requested
// clustering with a single read of T:
//
//  * Levels. The distinct valid minpts values, descending. Points are
//    counting-sorted into threshold groups by degree, so a point's rank
//    (its position in that order) grows with the level at which it turns
//    core. At each level the newly core points unite with their already
//    core neighbors in an AtomicUnionFind over ranks. A rank guard (the
//    neighbor ranks below the row's owner) makes each core-core edge
//    unite exactly once. After a barrier, the roots of that level's core
//    points are snapshotted into the level's output label buffer.
//  * Numbering. Walking a level's core points in ascending id, the first
//    member of each set opens the next cluster, so clusters are numbered
//    by their smallest core id: core labels are bit-identical to
//    dbscan_neighbor_table's, which starts a cluster at that point.
//  * Borders. The anchor of p is its neighbor q != p with the largest
//    |N(q)|, ties going to the smallest id, found in the same row read.
//    At level m a non-core p takes its anchor's label if the anchor is
//    core at m (then p is a border point), and is noise otherwise (no
//    neighbor of p is core). Per level that is O(n) and reads no rows.
//    Only core rows are read: a point core at no level gets its anchor
//    offered by its core neighbors' rows.
//  * Parallelism. Persistent workers, a barrier per phase; each group is
//    cut across workers by summed row length, not point count (a few
//    high-degree points can hold a third of T). Labels are materialized
//    level by level across workers, straight into input order.
//
// The labels depend only on T and m, never on the thread count or on the
// other values in the list.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "dbscan/cluster_result.hpp"
#include "dbscan/neighbor_table.hpp"

namespace hdbscan {

/// How one minpts value of a sweep ended.
struct MinptsOutcome {
  bool ok = true;
  std::string error;  ///< why the value was rejected; empty when ok
};

struct MinptsSweep {
  /// One clustering per requested value, in request order (labels empty
  /// when the value was rejected).
  std::vector<ClusterResult> results;
  std::vector<MinptsOutcome> outcomes;
  /// unite() calls made: one per core-core edge at the lowest valid
  /// minpts, whatever the thread count.
  std::uint64_t edge_unions = 0;
};

/// Clusters `table` at every value of `minpts` (any order, duplicates
/// allowed) with `num_threads` workers (0 = hardware concurrency). An
/// invalid value (< 1) is recorded in its outcome and its siblings are
/// kept; std::invalid_argument is thrown when every value is invalid.
/// Labels follow T's point order, or input order when `original_ids`
/// (T's row -> input id, e.g. GridIndex::original_ids) is given.
MinptsSweep dbscan_minpts_sweep(const NeighborTable& table,
                                std::span<const int> minpts,
                                unsigned num_threads,
                                std::span<const PointId> original_ids = {});

}  // namespace hdbscan
