#include "core/similarity_join.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <queue>
#include <stdexcept>

#include "cudasim/buffer.hpp"
#include "cudasim/kernel.hpp"
#include "cudasim/sort.hpp"
#include "cudasim/stream.hpp"
#include "gpu/device_index.hpp"
#include "gpu/result_sink.hpp"

namespace hdbscan {

namespace {

constexpr unsigned kBlock = 256;

/// Shared scan logic of the two join kernels: visit all candidates of a
/// query point and invoke `emit(candidate)` for matches.
template <typename Emit>
void scan_query(cudasim::ThreadCtx& ctx, const GridView<Point2>& view,
                const Point2& query, float eps2, Emit&& emit) {
  std::array<std::uint32_t, 9> cells{};
  const unsigned n = get_neighbor_cells(
      view.params, view.params.linear_cell(query), cells);
  for (unsigned c = 0; c < n; ++c) {
    const CellRange range = view.cells[cells[c]];
    ctx.count_global_bytes(sizeof(CellRange) +
                           std::uint64_t(range.count()) *
                               (sizeof(PointId) + sizeof(Point2)));
    ctx.count_flops(std::uint64_t(range.count()) * 6);
    for (std::uint32_t a = range.begin; a < range.end; ++a) {
      const PointId candidate = view.lookup[a];
      if (dist2(query, view.points[candidate]) <= eps2) {
        emit(candidate);
      }
    }
  }
}

struct CountJoinKernel {
  GridView<Point2> view;
  const Point2* queries;
  std::uint32_t num_queries;
  float eps2;
  std::atomic<std::uint64_t>* total;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t i = ctx.global_id();
    if (i >= num_queries) return;
    const Point2 q = queries[i];
    ctx.count_global_bytes(sizeof(Point2));
    std::uint64_t matches = 0;
    scan_query(ctx, view, q, eps2, [&](PointId) { ++matches; });
    total->fetch_add(matches, std::memory_order_relaxed);
    ctx.count_atomic();
  }
};

struct FillJoinKernel {
  GridView<Point2> view;
  const Point2* queries;
  std::uint32_t num_queries;
  float eps2;
  gpu::ResultSinkView sink;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t i = ctx.global_id();
    if (i >= num_queries) return;
    const Point2 q = queries[i];
    ctx.count_global_bytes(sizeof(Point2));
    // Stage locally and reserve sink slots in bulk: one atomic per flush
    // instead of one per pair.
    gpu::StagedSink staged(sink);
    scan_query(ctx, view, q, eps2, [&](PointId candidate) {
      staged.push({static_cast<PointId>(i), candidate}, ctx);
    });
    staged.flush(ctx);
  }
};

}  // namespace

JoinResult similarity_join(cudasim::Device& device,
                           std::span<const Point2> queries,
                           const GridIndex<Point2>& index, float eps) {
  if (eps > index.params.eps + 1e-6f) {
    throw std::invalid_argument(
        "similarity_join: eps exceeds the index cell width");
  }
  JoinResult result;
  if (queries.empty()) return result;

  cudasim::Stream stream(device);
  gpu::GridDeviceIndex device_index(device, stream, index);
  cudasim::DeviceBuffer<Point2> device_queries(device, queries.size());
  stream.memcpy_to_device(device_queries, queries.data(), queries.size());
  stream.synchronize();
  const GridView<Point2> view = device_index.view();
  const auto nq = static_cast<std::uint32_t>(queries.size());
  const unsigned grid_dim = (nq + kBlock - 1) / kBlock;
  const float eps2 = eps * eps;

  // Pass 1: exact match count (no result materialization).
  std::atomic<std::uint64_t> total{0};
  auto stats = cudasim::run_flat_kernel(
      device, grid_dim, kBlock,
      CountJoinKernel{view, device_queries.device_data(), nq, eps2, &total});
  result.modeled_seconds += stats.modeled_seconds;

  // Pass 2: exact-size sink, fill, sort by query, D2H.
  gpu::ResultSetDevice sink(device, total.load() + 1);
  stats = cudasim::run_flat_kernel(
      device, grid_dim, kBlock,
      FillJoinKernel{view, device_queries.device_data(), nq, eps2,
                     sink.view()});
  result.modeled_seconds += stats.modeled_seconds;
  result.batches = 1;

  const std::uint64_t pairs = sink.count();
  cudasim::sort_by_key(device, sink.pairs(), pairs,
                       [](const NeighborPair& p) { return p.key; });
  result.modeled_seconds +=
      cudasim::modeled_sort_seconds(device.config(),
                                    pairs * sizeof(NeighborPair)) +
      cudasim::modeled_transfer_seconds(device.config(),
                                        pairs * sizeof(NeighborPair), false);
  result.pairs.resize(pairs);
  device.blocking_transfer(result.pairs.data(), sink.pairs().device_data(),
                           pairs * sizeof(NeighborPair), false, false);
  return result;
}

std::vector<KnnNeighbor> knn_search(const GridIndex<Point2>& index,
                                    const Point2& query, unsigned k) {
  std::vector<KnnNeighbor> result;
  if (k == 0) return result;
  const GridParams<Point2>& params = index.params;
  const float w = params.eps;  // cell width

  // Max-heap of the best k seen so far (top = current worst).
  auto worse = [](const KnnNeighbor& a, const KnnNeighbor& b) {
    return a.distance < b.distance;
  };
  std::priority_queue<KnnNeighbor, std::vector<KnnNeighbor>, decltype(worse)>
      best(worse);

  const std::int64_t qx = params.axis_cell(query.x, 0);
  const std::int64_t qy = params.axis_cell(query.y, 1);
  const std::int64_t max_ring =
      std::max<std::int64_t>(params.shape[0], params.shape[1]);

  for (std::int64_t ring = 0; ring <= max_ring; ++ring) {
    // Early exit: every cell at Chebyshev ring r is at least (r-1) cell
    // widths away from the query.
    if (best.size() == k &&
        static_cast<float>(ring - 1) * w > best.top().distance) {
      break;
    }
    for (std::int64_t dy = -ring; dy <= ring; ++dy) {
      const std::int64_t cy = qy + dy;
      if (cy < 0 || cy >= static_cast<std::int64_t>(params.shape[1])) continue;
      const bool edge_row = (dy == -ring || dy == ring);
      const std::int64_t step = edge_row ? 1 : 2 * ring;
      for (std::int64_t dx = -ring; dx <= ring;
           dx += (step == 0 ? 1 : step)) {
        const std::int64_t cx = qx + dx;
        if (cx < 0 || cx >= static_cast<std::int64_t>(params.shape[0])) {
          if (step == 0) break;
          continue;
        }
        const CellRange range =
            index.cells[static_cast<std::size_t>(cy) * params.shape[0] +
                        static_cast<std::size_t>(cx)];
        for (std::uint32_t a = range.begin; a < range.end; ++a) {
          const PointId id = index.lookup[a];
          const float d = dist(query, index.points[id]);
          if (best.size() < k) {
            best.push({id, d});
          } else if (d < best.top().distance) {
            best.pop();
            best.push({id, d});
          }
        }
        if (step == 0) break;  // ring 0 has a single cell
      }
    }
  }

  result.resize(best.size());
  for (auto it = result.rbegin(); it != result.rend(); ++it) {
    *it = best.top();
    best.pop();
  }
  return result;
}

}  // namespace hdbscan
