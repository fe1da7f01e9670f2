// Distance-threshold similarity search beyond DBSCAN (paper §VIII: "the
// techniques described in this work are applicable to other similarity
// searches").
//
// * similarity_join  — all pairs (a in A, b in B) with dist <= eps,
//   computed with the same GPU machinery as the neighbor table: grid index
//   over B, one thread per query point of A, batched atomic-append result
//   sink. A == B with eps reproduces exactly the neighbor-table relation.
// * knn_search       — k nearest neighbors per query via expanding grid
//   rings (host-side; the index is the same structure the device uses).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "cudasim/device.hpp"
#include "index/grid_index.hpp"

namespace hdbscan {

struct JoinResult {
  /// (key = index into queries, value = index into the *indexed* data's
  /// internal order; map through index.original_ids for input order).
  std::vector<NeighborPair> pairs;
  double modeled_seconds = 0.0;
  std::uint32_t batches = 0;
};

/// All (query, data) pairs within eps. `index` must have been built with a
/// cell width >= eps.
JoinResult similarity_join(cudasim::Device& device,
                           std::span<const Point2> queries,
                           const GridIndex<Point2>& index, float eps);

struct KnnNeighbor {
  PointId id = 0;       ///< id in the index's internal order
  float distance = 0.0f;
};

/// k nearest neighbors of `query` among the indexed points, in ascending
/// distance order (fewer than k when the dataset is smaller).
std::vector<KnnNeighbor> knn_search(const GridIndex<Point2>& index,
                                    const Point2& query, unsigned k);

}  // namespace hdbscan
