#include "gpu/kernels3.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <span>

namespace hdbscan::gpu {

namespace {

/// 3-D analog of the 2-D for_each_neighbor: tests each pair once (own-cell
/// suffix via binary search plus the forward 13-cell stencil) and emits
/// forward rows only.
template <typename Emit>
void for_each_neighbor3(const GridView3& view, PointId pid,
                        const Point3& point, float eps2,
                        cudasim::ThreadCtx& ctx, Emit&& emit) {
  auto scan_range = [&](std::uint32_t begin, std::uint32_t end) {
    const std::uint32_t candidates = end - begin;
    ctx.count_global_bytes(static_cast<std::uint64_t>(candidates) *
                           (sizeof(PointId) + sizeof(Point3)));
    ctx.count_flops(static_cast<std::uint64_t>(candidates) * 9);
    for (std::uint32_t a = begin; a < end; ++a) {
      const PointId candidate = view.lookup[a];
      if (dist2(point, view.points[candidate]) <= eps2) emit(candidate);
    }
  };

  const std::uint32_t cell = view.params.linear_cell(point);
  const CellRange own = view.cells[cell];
  ctx.count_global_bytes(sizeof(CellRange));
  const PointId* first = view.lookup + own.begin;
  const PointId* last = view.lookup + own.end;
  const PointId* lo = std::lower_bound(first, last, pid);
  unsigned probes = 0;
  while ((1u << probes) < own.count()) ++probes;
  ctx.count_global_bytes(static_cast<std::uint64_t>(probes) *
                         sizeof(PointId));
  scan_range(static_cast<std::uint32_t>(lo - view.lookup), own.end);
  std::array<std::uint32_t, 27> cell_ids{};
  const unsigned ncells =
      get_forward_neighbor_cells3(view.params, cell, cell_ids);
  for (unsigned c = 0; c < ncells; ++c) {
    const CellRange range = view.cells[cell_ids[c]];
    ctx.count_global_bytes(sizeof(CellRange));
    scan_range(range.begin, range.end);
  }
}

struct GlobalKernel3Body {
  GridView3 view;
  float eps2;
  BatchSpec batch;
  ResultSinkView sink;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t gid = ctx.global_id();
    const std::uint64_t i = gid * batch.num_batches + batch.batch;
    if (i >= view.num_points) return;
    const auto pid = static_cast<PointId>(i);
    const Point3 point = view.points[i];
    ctx.count_global_bytes(sizeof(Point3));
    StagedSink staged(sink);
    for_each_neighbor3(view, pid, point, eps2, ctx,
                       [&](PointId candidate) {
                         staged.push(NeighborPair{pid, candidate}, ctx);
                       });
    staged.flush(ctx);
  }
};

/// 3-D pass-1 count kernel for the two-pass CSR builder: thread g writes
/// its batch point's neighbor count to counts[g]. No atomics.
struct CountBatch3Body {
  GridView3 view;
  float eps2;
  BatchSpec batch;
  std::uint32_t* counts;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t gid = ctx.global_id();
    const std::uint64_t i = gid * batch.num_batches + batch.batch;
    if (i >= view.num_points) return;
    const auto pid = static_cast<PointId>(i);
    const Point3 point = view.points[i];
    ctx.count_global_bytes(sizeof(Point3));
    std::uint32_t matches = 0;
    for_each_neighbor3(view, pid, point, eps2, ctx,
                       [&](PointId) { ++matches; });
    counts[gid] = matches;
    ctx.count_global_bytes(sizeof(std::uint32_t));
  }
};

/// 3-D pass-2 fill kernel: writes neighbor ids at the exact CSR offsets
/// produced by scanning the pass-1 counts. No atomics, no sort.
struct FillCsr3Body {
  GridView3 view;
  float eps2;
  BatchSpec batch;
  const std::uint32_t* offsets;
  PointId* values;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t gid = ctx.global_id();
    const std::uint64_t i = gid * batch.num_batches + batch.batch;
    if (i >= view.num_points) return;
    const auto pid = static_cast<PointId>(i);
    const Point3 point = view.points[i];
    ctx.count_global_bytes(sizeof(Point3) + sizeof(std::uint32_t));
    PointId* out = values + offsets[gid];
    for_each_neighbor3(view, pid, point, eps2, ctx,
                       [&](PointId candidate) {
                         *out++ = candidate;
                         ctx.count_global_bytes(sizeof(PointId));
                       });
  }
};

/// Local parked-pair buffer length of the fused kernel; mirrors the 2-D
/// kernel's spill size (kernels.cpp keeps its own copy file-locally).
constexpr unsigned kFusedSpill3 = 256;

/// 3-D fused no-table body — same degree/union semantics as the 2-D
/// FusedKernelBody, traversing via for_each_neighbor3. Own contributions
/// accumulate in a register (one fetch_add at thread end); each cross
/// pair's back contribution to the partner's degree is a
/// per-pair fetch_add whose return value is a monotone lower bound used
/// for the both-core check. Pairs not yet provably core-core are parked.
struct FusedKernel3Body {
  GridView3 view;
  float eps2;
  BatchSpec batch;
  StreamingDbscan::FusedView fu;
  StreamingDbscan* sink;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t gid = ctx.global_id();
    const std::uint64_t i = gid * batch.num_batches + batch.batch;
    if (i >= view.num_points) return;
    const auto pid = static_cast<PointId>(i);
    const Point3 point = view.points[i];
    ctx.count_global_bytes(sizeof(Point3));

    NeighborPair local[kFusedSpill3];
    unsigned nlocal = 0;
    std::uint32_t own_degree = 0;
    std::uint64_t seen = 0;
    std::uint64_t streamed = 0;

    for_each_neighbor3(view, pid, point, eps2, ctx,
                       [&](PointId cand) {
      ++own_degree;  // self pair included: degree counts the point itself
      if (cand == pid) return;
      const std::uint32_t deg_v =
          fu.degree[cand].fetch_add(1, std::memory_order_relaxed) + 1;
      ctx.count_atomic();
      ++seen;
      const std::uint32_t deg_p =
          fu.degree[pid].load(std::memory_order_relaxed) + own_degree;
      ctx.count_global_bytes(sizeof(std::uint32_t));
      if (deg_p >= fu.required && deg_v >= fu.required) {
        fu.uf->unite(pid, cand);
        ctx.count_atomic();
        ctx.count_global_bytes(2 * sizeof(std::uint32_t));
        ++streamed;
      } else {
        local[nlocal++] = NeighborPair{pid, cand};
        ctx.count_global_bytes(sizeof(NeighborPair));  // parked-edge write
        if (nlocal == kFusedSpill3) {
          sink->ingest_fused(std::span<const NeighborPair>(local, nlocal), 0,
                             0);
          nlocal = 0;
        }
      }
    });

    if (own_degree != 0) {
      fu.degree[pid].fetch_add(own_degree, std::memory_order_relaxed);
      ctx.count_atomic();
    }
    if (nlocal != 0 || seen != 0) {
      sink->ingest_fused(std::span<const NeighborPair>(local, nlocal), seen,
                         streamed);
    }
  }
};

struct CountKernel3Body {
  GridView3 view;
  float eps2;
  std::uint32_t stride;
  std::atomic<std::uint64_t>* total;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t i =
        static_cast<std::uint64_t>(ctx.global_id()) * stride;
    if (i >= view.num_points) return;
    const Point3 point = view.points[i];
    ctx.count_global_bytes(sizeof(Point3));
    std::uint64_t matches = 0;
    std::array<std::uint32_t, 27> cell_ids{};
    const unsigned n = get_neighbor_cells3(
        view.params, view.params.linear_cell(point), cell_ids);
    for (unsigned c = 0; c < n; ++c) {
      const CellRange range = view.cells[cell_ids[c]];
      ctx.count_global_bytes(sizeof(CellRange) +
                             std::uint64_t(range.count()) *
                                 (sizeof(PointId) + sizeof(Point3)));
      ctx.count_flops(std::uint64_t(range.count()) * 9);
      for (std::uint32_t a = range.begin; a < range.end; ++a) {
        matches += dist2(point, view.points[view.lookup[a]]) <= eps2;
      }
    }
    total->fetch_add(matches, std::memory_order_relaxed);
    ctx.count_atomic();
  }
};

}  // namespace

cudasim::KernelStats run_calc_global3(cudasim::Device& device,
                                      const GridView3& view, float eps,
                                      BatchSpec batch, ResultSinkView sink,
                                      unsigned block_size) {
  const std::uint32_t points = batch.points_in_batch(view.num_points);
  const unsigned grid = (points + block_size - 1) / block_size;
  return cudasim::run_flat_kernel(
      device, grid, block_size,
      GlobalKernel3Body{view, eps * eps, batch, sink});
}

cudasim::KernelStats run_count_batch3(cudasim::Device& device,
                                      const GridView3& view, float eps,
                                      BatchSpec batch, std::uint32_t* counts,
                                      unsigned block_size) {
  const std::uint32_t points = batch.points_in_batch(view.num_points);
  const unsigned grid = (points + block_size - 1) / block_size;
  return cudasim::run_flat_kernel(
      device, grid, block_size,
      CountBatch3Body{view, eps * eps, batch, counts});
}

cudasim::KernelStats run_fill_csr3(cudasim::Device& device,
                                   const GridView3& view, float eps,
                                   BatchSpec batch,
                                   const std::uint32_t* offsets,
                                   PointId* values, unsigned block_size) {
  const std::uint32_t points = batch.points_in_batch(view.num_points);
  const unsigned grid = (points + block_size - 1) / block_size;
  return cudasim::run_flat_kernel(
      device, grid, block_size,
      FillCsr3Body{view, eps * eps, batch, offsets, values});
}

cudasim::KernelStats run_fused_batch3(cudasim::Device& device,
                                      const GridView3& view, float eps,
                                      BatchSpec batch, StreamingDbscan& sink,
                                      unsigned block_size) {
  const std::uint32_t points = batch.points_in_batch(view.num_points);
  const unsigned grid = (points + block_size - 1) / block_size;
  return cudasim::run_flat_kernel(
      device, grid, block_size,
      FusedKernel3Body{view, eps * eps, batch, sink.fused_view(), &sink});
}

std::uint64_t run_count_kernel3(cudasim::Device& device, const GridView3& view,
                                float eps, std::uint32_t sample_stride,
                                cudasim::KernelStats* stats_out,
                                unsigned block_size) {
  if (sample_stride == 0) sample_stride = 1;
  std::atomic<std::uint64_t> total{0};
  const std::uint64_t samples =
      (view.num_points + sample_stride - 1) / sample_stride;
  const unsigned grid =
      static_cast<unsigned>((samples + block_size - 1) / block_size);
  const auto stats = cudasim::run_flat_kernel(
      device, grid, block_size,
      CountKernel3Body{view, eps * eps, sample_stride, &total});
  if (stats_out != nullptr) *stats_out = stats;
  return total.load(std::memory_order_relaxed);
}

}  // namespace hdbscan::gpu
