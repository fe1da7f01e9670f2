#include "dbscan/dbscan.hpp"

#include <stdexcept>
#include <vector>

#include "obs/trace.hpp"

namespace hdbscan {

namespace {

/// The expansion loop shared by every flavour. `search(p, out)` must fill
/// `out` with the eps-neighborhood of p including p itself.
template <typename SearchFn>
ClusterResult dbscan_impl(std::size_t n, int minpts, SearchFn&& search) {
  if (minpts < 1) throw std::invalid_argument("dbscan: minpts must be >= 1");

  ClusterResult result;
  result.labels.assign(n, kUnvisited);
  auto& labels = result.labels;
  std::int32_t cluster = 0;

  std::vector<PointId> neighbors;
  std::vector<PointId> seeds;

  for (PointId p = 0; p < n; ++p) {
    if (labels[p] != kUnvisited) continue;
    search(p, neighbors);
    if (neighbors.size() < static_cast<std::size_t>(minpts)) {
      labels[p] = kNoise;  // may be promoted to border later
      continue;
    }
    // p is a core point: start a new cluster and expand it. Neighbors of a
    // core point are density-reachable and labeled immediately; only
    // previously unvisited ones are enqueued for expansion, which bounds
    // the seed list by |D| instead of the total neighbor count.
    labels[p] = cluster;
    seeds.clear();
    auto absorb = [&](std::span<const PointId> reached) {
      for (const PointId j : reached) {
        if (labels[j] == kUnvisited) {
          labels[j] = cluster;
          seeds.push_back(j);
        } else if (labels[j] == kNoise) {
          labels[j] = cluster;  // border point
        }
      }
    };
    absorb(neighbors);
    for (std::size_t s = 0; s < seeds.size(); ++s) {
      const PointId q = seeds[s];
      search(q, neighbors);
      if (neighbors.size() >= static_cast<std::size_t>(minpts)) {
        absorb(neighbors);
      }
    }
    ++cluster;
  }
  result.num_clusters = cluster;
  result.finalize_noise_count();
  return result;
}

}  // namespace

ClusterResult dbscan_rtree(std::span<const Point2> points, float eps,
                           int minpts, const RTree& rtree,
                           TimeAccumulator* search_time) {
  return dbscan_impl(points.size(), minpts,
                     [&](PointId p, std::vector<PointId>& out) {
                       out.clear();
                       rtree.query_circle(points[p], eps, out, search_time);
                     });
}

ClusterResult dbscan_rtree(std::span<const Point2> points, float eps,
                           int minpts, TimeAccumulator* search_time) {
  const RTree rtree(points);
  return dbscan_rtree(points, eps, minpts, rtree, search_time);
}

ClusterResult dbscan_grid(const GridIndex<Point2>& index, float eps,
                          int minpts) {
  return dbscan_impl(index.size(), minpts,
                     [&](PointId p, std::vector<PointId>& out) {
                       grid_query(index, index.points[p], eps, out);
                     });
}

ClusterResult dbscan_neighbor_table(const NeighborTable& table, int minpts) {
  // Specialized expansion loop: the neighborhood is already materialized
  // in T, so it is consumed as a span with no per-query copy — this is the
  // entire point of precomputing T (paper Alg. 4 line 9).
  if (minpts < 1) throw std::invalid_argument("dbscan: minpts must be >= 1");
  const std::size_t n = table.num_points();
  TRACE_SPAN("dbscan", "dbscan_table n=%zu minpts=%d", n, minpts);
  const auto required = static_cast<std::uint32_t>(minpts);

  ClusterResult result;
  result.labels.assign(n, kUnvisited);
  auto& labels = result.labels;
  std::int32_t cluster = 0;
  std::vector<PointId> seeds;

  for (PointId p = 0; p < n; ++p) {
    if (labels[p] != kUnvisited) continue;
    if (table.neighbor_count(p) < required) {
      labels[p] = kNoise;
      continue;
    }
    labels[p] = cluster;
    seeds.clear();
    auto absorb = [&](std::span<const PointId> reached) {
      for (const PointId j : reached) {
        if (labels[j] == kUnvisited) {
          labels[j] = cluster;
          seeds.push_back(j);
        } else if (labels[j] == kNoise) {
          labels[j] = cluster;
        }
      }
    };
    absorb(table.neighbors(p));
    for (std::size_t s = 0; s < seeds.size(); ++s) {
      const PointId q = seeds[s];
      if (table.neighbor_count(q) >= required) {
        absorb(table.neighbors(q));
      }
    }
    ++cluster;
  }
  result.num_clusters = cluster;
  result.finalize_noise_count();
  return result;
}

}  // namespace hdbscan
