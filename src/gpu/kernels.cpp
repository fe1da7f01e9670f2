#include "gpu/kernels.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <span>

namespace hdbscan::gpu {

namespace {

/// Grid traversal shared by the per-point kernel bodies, for 2-D and 3-D
/// points. Calls `emit(candidate)` for every candidate within eps of
/// `point`, charging the per-candidate reads (lookup id 4 B + the point)
/// and the 3-per-axis squared-distance test.
///
/// Each pair is tested exactly once: the own cell contributes only the
/// suffix of candidates at/after the query's own lookup position (found by
/// binary search over the cell's ascending slice of A — charged as log2
/// candidate-id reads), and only the forward half of the stencil is
/// visited. Emissions are therefore forward rows only; symmetry is
/// restored downstream (NeighborTable::expand_half_table).
template <typename Point, typename Emit>
void for_each_neighbor(const GridView<Point>& view, PointId pid,
                       const Point& point, float eps2,
                       cudasim::ThreadCtx& ctx, Emit&& emit) {
  auto scan_range = [&](std::uint32_t begin, std::uint32_t end) {
    const std::uint32_t candidates = end - begin;
    ctx.count_global_bytes(static_cast<std::uint64_t>(candidates) *
                           (sizeof(PointId) + sizeof(Point)));
    ctx.count_flops(static_cast<std::uint64_t>(candidates) *
                    PointTraits<Point>::kFlopsPerTest);
    for (std::uint32_t a = begin; a < end; ++a) {
      const PointId candidate = view.lookup[a];
      if (dist2(point, view.points[candidate]) <= eps2) emit(candidate);
    }
  };

  // `params` keeps the global geometry even on a shard slab, so cell ids
  // are global; the slab's cells array is indexed relative to cell_base.
  // Owned points' whole stencils lie inside the slab by construction
  // (shard_planner includes the epsilon-halo rows), so no bound check.
  const std::uint32_t cell = view.params.linear_cell(point);
  const CellRange own = view.cells[cell - view.cell_base];
  ctx.count_global_bytes(sizeof(CellRange));
  const PointId* first = view.lookup + own.begin;
  const PointId* last = view.lookup + own.end;
  const PointId* lo = std::lower_bound(first, last, pid);
  unsigned probes = 0;
  while ((1u << probes) < own.count()) ++probes;
  ctx.count_global_bytes(static_cast<std::uint64_t>(probes) *
                         sizeof(PointId));
  scan_range(static_cast<std::uint32_t>(lo - view.lookup), own.end);
  StencilCells<Point> cell_ids{};
  const unsigned ncells =
      get_forward_neighbor_cells(view.params, cell, cell_ids);
  for (unsigned c = 0; c < ncells; ++c) {
    const CellRange range = view.cells[cell_ids[c] - view.cell_base];
    ctx.count_global_bytes(sizeof(CellRange));
    scan_range(range.begin, range.end);
  }
}

/// The id a kernel writes for candidate `c`. Grid views pass it through
/// their value-emission map (identity on the full index; local->global on
/// shard slabs, one extra 4 B read per emitted pair, which buys the merge
/// freedom from ever touching individual pairs).
template <typename Point>
PointId emitted(const GridView<Point>& view, PointId c,
                cudasim::ThreadCtx& ctx) {
  if (view.emit_ids == nullptr) return c;
  ctx.count_global_bytes(sizeof(PointId));
  return view.emit_ids[c];
}

/// Per-thread body of GPUCalcGlobal (paper Alg. 2, with the batching
/// transformation of §VI: the processed point is gid * n_b + l).
template <typename Point>
struct GlobalKernelBody {
  GridView<Point> view;
  float eps2;
  BatchSpec batch;
  ResultSinkView sink;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t gid = ctx.global_id();
    const std::uint64_t i =
        gid * batch.num_batches + batch.batch;  // strided assignment
    if (i >= view.query_count()) return;

    const auto pid = static_cast<PointId>(i);
    const Point point = view.points[i];
    ctx.count_global_bytes(sizeof(Point));

    StagedSink staged(sink);
    for_each_neighbor(view, pid, point, eps2, ctx, [&](PointId candidate) {
      staged.push(NeighborPair{pid, emitted(view, candidate, ctx)}, ctx);
    });
    staged.flush(ctx);
  }
};

struct SharedKernelParams {
  GridView<Point2> view;
  const std::uint32_t* schedule;
  float eps2;
  ResultSinkView sink;
};

// Shared-memory arena layout for GPUCalcShared (block size B):
//   [0, 36)                      neighbor cell ids (<= 9 x u32)
//   [36, 40)                     neighbor cell count
//   [40, 40 + 8B)                origin tile points
//   [40 + 8B, 40 + 12B)          origin tile ids
//   [40 + 12B, 40 + 20B)         comparison tile points
//   [40 + 20B, 40 + 24B)         comparison tile ids
constexpr std::size_t kSmemHeader = 40;

/// One logical thread of GPUCalcShared (paper Alg. 3) as a coroutine;
/// co_await ctx.sync() is the simulator's __syncthreads().
///
/// No emission map here: push_dual emits each matched id as a key in one
/// direction and a value in the other, and keys must stay in resident-id
/// space (they index the CSR/staging rows). Shard builds — the only users
/// of emit_ids — disable the shared kernel for exactly this class of
/// reason (ghost-key rows), so the map being ignored is unreachable.
cudasim::KernelTask shared_kernel_thread(cudasim::CoopCtx& ctx,
                                         SharedKernelParams p) {
  const unsigned tid = ctx.thread_idx;
  const unsigned bdim = ctx.block_dim;
  StagedSink staged(p.sink);

  auto cell_ids = ctx.shared_array<std::uint32_t>(0, 9);
  auto cell_count = ctx.shared_array<std::uint32_t>(36, 1);
  auto origin_pts = ctx.shared_array<Point2>(kSmemHeader, bdim);
  auto origin_ids =
      ctx.shared_array<PointId>(kSmemHeader + bdim * sizeof(Point2), bdim);
  auto comp_pts = ctx.shared_array<Point2>(
      kSmemHeader + bdim * (sizeof(Point2) + sizeof(PointId)), bdim);
  auto comp_ids = ctx.shared_array<PointId>(
      kSmemHeader + bdim * (2 * sizeof(Point2) + sizeof(PointId)), bdim);

  // The block's cell (schedule S maps blocks to non-empty cells).
  const std::uint32_t cell_to_proc = p.schedule[ctx.block_idx];
  ctx.count_global_bytes(sizeof(std::uint32_t));

  // Thread 0 publishes the comparison cell ids (Alg. 3 lines 8-10): the
  // own cell first (compared under the id >= mine rule) followed by the
  // forward stencil. Every qualifying pair is then tested by exactly one
  // block and emitted in both directions on the spot (push_dual), so this
  // kernel's output is the full table with no host-side expansion step.
  if (tid == 0) {
    StencilCells<Point2> tmp{};
    unsigned n = 0;
    cell_ids[n++] = cell_to_proc;
    const unsigned fwd =
        get_forward_neighbor_cells(p.view.params, cell_to_proc, tmp);
    for (unsigned c = 0; c < fwd; ++c) cell_ids[n++] = tmp[c];
    cell_count[0] = n;
    ctx.count_shared_bytes(4ull * n + 4);
  }
  co_await ctx.sync();

  const CellRange origin_range = p.view.cells[cell_to_proc - p.view.cell_base];
  ctx.count_global_bytes(sizeof(CellRange));

  // Outer tiling loop: needed when the origin cell holds more points than
  // the block size (the "additional loop" of §IV-B).
  for (std::uint32_t obase = origin_range.begin; obase < origin_range.end;
       obase += bdim) {
    const std::uint32_t oidx = obase + tid;
    const bool has_origin = oidx < origin_range.end;
    if (has_origin) {
      const PointId id = p.view.lookup[oidx];
      origin_ids[tid] = id;
      origin_pts[tid] = p.view.points[id];
      ctx.count_global_bytes(sizeof(PointId) + sizeof(Point2));
      ctx.count_shared_bytes(sizeof(PointId) + sizeof(Point2));
    }
    co_await ctx.sync();

    const unsigned ncells = cell_count[0];
    for (unsigned c = 0; c < ncells; ++c) {
      const CellRange comp_range = p.view.cells[cell_ids[c] - p.view.cell_base];
      ctx.count_global_bytes(sizeof(CellRange));
      for (std::uint32_t cbase = comp_range.begin; cbase < comp_range.end;
           cbase += bdim) {
        // Page one comparison tile into shared memory (lines 15-17).
        const std::uint32_t cidx = cbase + tid;
        if (cidx < comp_range.end) {
          const PointId id = p.view.lookup[cidx];
          comp_ids[tid] = id;
          comp_pts[tid] = p.view.points[id];
          ctx.count_global_bytes(sizeof(PointId) + sizeof(Point2));
          ctx.count_shared_bytes(sizeof(PointId) + sizeof(Point2));
        }
        co_await ctx.sync();

        // Compare this thread's origin point against the tile (lines
        // 19-22), everything served from shared memory. The own-cell
        // tile (c == 0) only tests candidates with id >= mine — the
        // ordering invariant's same-cell halving — and cross matches are
        // emitted in both directions at once.
        if (has_origin) {
          const std::uint32_t tile =
              std::min<std::uint32_t>(bdim, comp_range.end - cbase);
          const Point2 mine = origin_pts[tid];
          const PointId my_id = origin_ids[tid];
          std::uint64_t tested = 0;
          for (std::uint32_t j = 0; j < tile; ++j) {
            const PointId cand = comp_ids[j];
            if (c == 0 && cand < my_id) continue;
            ++tested;
            if (dist2(mine, comp_pts[j]) <= p.eps2) {
              if (cand == my_id) {
                staged.push(NeighborPair{my_id, my_id}, ctx);
              } else {
                staged.push_dual(my_id, cand, ctx);
              }
            }
          }
          // Candidate ids are read for the whole tile (the filter needs
          // them); points and the distance test only for tested ones.
          ctx.count_shared_bytes(sizeof(Point2) + sizeof(PointId) +
                                 static_cast<std::uint64_t>(tile) *
                                     sizeof(PointId) +
                                 tested * sizeof(Point2));
          ctx.count_flops(tested * 6);
        }
        // Keep the tile stable until every thread is done comparing.
        co_await ctx.sync();
      }
    }
    // Keep the origin tile stable until every thread finished this round.
    co_await ctx.sync();
  }
  staged.flush(ctx);
}

/// Pass 1 of the two-pass CSR builder: thread g counts the neighbors of
/// its batch point and writes counts[g]. No atomics, no result
/// materialization — an exclusive scan of `counts` then yields the exact
/// CSR slot offsets for the fill pass.
template <typename Point>
struct CountBatchKernelBody {
  GridView<Point> view;
  float eps2;
  BatchSpec batch;
  std::uint32_t* counts;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t gid = ctx.global_id();
    const std::uint64_t i = gid * batch.num_batches + batch.batch;
    if (i >= view.query_count()) return;
    const auto pid = static_cast<PointId>(i);
    const auto point = view.points[i];
    ctx.count_global_bytes(sizeof(point));
    std::uint32_t neighbors = 0;
    // The counts are *forward-row* lengths — no atomics on other rows;
    // the host transpose restores the back rows after the merge.
    for_each_neighbor(view, pid, point, eps2, ctx,
                      [&](PointId) { ++neighbors; });
    counts[gid] = neighbors;
    ctx.count_global_bytes(sizeof(std::uint32_t));
  }
};

/// Pass 2 of the two-pass CSR builder: thread g re-runs its neighborhood
/// search and writes the neighbor ids directly into its pre-sized CSR slot
/// [offsets[g], offsets[g] + counts[g]). The offsets are exact, so the
/// pass needs no atomics, no sort, and ships bare PointId values (half the
/// bytes of a NeighborPair) over PCIe.
template <typename Point>
struct FillCsrKernelBody {
  GridView<Point> view;
  float eps2;
  BatchSpec batch;
  const std::uint32_t* offsets;
  PointId* values;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t gid = ctx.global_id();
    const std::uint64_t i = gid * batch.num_batches + batch.batch;
    if (i >= view.query_count()) return;
    const auto pid = static_cast<PointId>(i);
    const auto point = view.points[i];
    ctx.count_global_bytes(sizeof(point) + sizeof(std::uint32_t));
    PointId* out = values + offsets[gid];
    for_each_neighbor(view, pid, point, eps2, ctx, [&](PointId candidate) {
      *out++ = emitted(view, candidate, ctx);
      ctx.count_global_bytes(sizeof(PointId));
    });
  }
};

/// Thread-local parking buffer size of the fused kernels (spilled to
/// StreamingDbscan::ingest_fused when full and at thread end).
constexpr unsigned kFusedSpill = 256;

/// Per-thread body of the fused no-table clustering kernel, shared by the
/// 2-D and 3-D grids.
///
/// Degree handling: the thread's own contributions (self pair + every
/// candidate it tests) accumulate in a register and land as ONE fetch_add
/// at thread end; the back contribution to each cross partner's degree is
/// a per-pair fetch_add (the streaming equivalent of expand_half_table's
/// counting pass, done in-kernel). Core checks use the
/// partner add's return value and the own-degree register as monotone
/// lower bounds — a pair that looks undecidable now is parked and settled
/// by compaction or finalize, never dropped.
///
/// Exactly-once: launches fault before any block runs (cudasim contract),
/// so a failed batch contributed nothing and is safe to requeue whole.
template <typename Point>
struct FusedKernelBody {
  GridView<Point> view;
  float eps2;
  BatchSpec batch;
  StreamingDbscan::FusedView fu;
  StreamingDbscan* sink;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t gid = ctx.global_id();
    const std::uint64_t i = gid * batch.num_batches + batch.batch;
    if (i >= view.query_count()) return;
    const auto pid = static_cast<PointId>(i);
    const auto point = view.points[i];
    ctx.count_global_bytes(sizeof(point));

    NeighborPair local[kFusedSpill];
    unsigned nlocal = 0;
    std::uint32_t own_degree = 0;
    std::uint64_t seen = 0;
    std::uint64_t streamed = 0;

    for_each_neighbor(view, pid, point, eps2, ctx, [&](PointId cand) {
      ++own_degree;  // self pair included: degree counts the point itself
      if (cand == pid) return;
      // Forward traversals see each cross pair once; the partner's degree
      // gains the back contribution here. The returned value is a
      // monotone lower bound on the partner's final degree.
      const std::uint32_t deg_v =
          fu.degree[cand].fetch_add(1, std::memory_order_relaxed) + 1;
      ctx.count_atomic();
      ++seen;
      const std::uint32_t deg_p =
          fu.degree[pid].load(std::memory_order_relaxed) + own_degree;
      ctx.count_global_bytes(sizeof(std::uint32_t));
      if (deg_p >= fu.required && deg_v >= fu.required) {
        // Both endpoints already core: union on the spot (monotonicity
        // makes this final). One CAS plus the find chain's reads.
        fu.uf->unite(pid, cand);
        ctx.count_atomic();
        ctx.count_global_bytes(2 * sizeof(std::uint32_t));
        ++streamed;
      } else {
        local[nlocal++] = NeighborPair{pid, cand};
        ctx.count_global_bytes(sizeof(NeighborPair));  // parked-edge write
        if (nlocal == kFusedSpill) {
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

/// Per-thread body of the estimation kernel: thread t counts the neighbors
/// of sample point t * stride over the full stencil and contributes one
/// atomic add.
template <typename Point>
struct CountKernelBody {
  GridView<Point> view;
  float eps2;
  std::uint32_t stride;
  std::atomic<std::uint64_t>* total;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t i =
        static_cast<std::uint64_t>(ctx.global_id()) * stride;
    if (i >= view.query_count()) return;
    const Point point = view.points[i];
    ctx.count_global_bytes(sizeof(Point));
    std::uint64_t neighbors = 0;
    StencilCells<Point> cell_ids{};
    const unsigned ncells = get_neighbor_cells(
        view.params, view.params.linear_cell(point), cell_ids);
    for (unsigned c = 0; c < ncells; ++c) {
      const CellRange range = view.cells[cell_ids[c] - view.cell_base];
      ctx.count_global_bytes(sizeof(CellRange));
      const std::uint32_t candidates = range.count();
      ctx.count_global_bytes(static_cast<std::uint64_t>(candidates) *
                             (sizeof(PointId) + sizeof(Point)));
      ctx.count_flops(static_cast<std::uint64_t>(candidates) *
                      PointTraits<Point>::kFlopsPerTest);
      for (std::uint32_t a = range.begin; a < range.end; ++a) {
        if (dist2(point, view.points[view.lookup[a]]) <= eps2) ++neighbors;
      }
    }
    total->fetch_add(neighbors, std::memory_order_relaxed);
    ctx.count_atomic();
  }
};

[[nodiscard]] unsigned grid_dim_for(std::uint64_t threads_needed,
                                    unsigned block_size) {
  return static_cast<unsigned>((threads_needed + block_size - 1) / block_size);
}

/// Launches `body` with one thread per point of `batch`.
template <typename Body>
cudasim::KernelStats run_batch(cudasim::Device& device, std::uint32_t points,
                               unsigned block_size, const Body& body) {
  return cudasim::run_flat_kernel(device, grid_dim_for(points, block_size),
                                  block_size, body);
}

}  // namespace

template <typename Point>
cudasim::KernelStats run_calc_global(cudasim::Device& device,
                                     const GridView<Point>& view, float eps,
                                     BatchSpec batch, ResultSinkView sink,
                                     unsigned block_size) {
  return run_batch(device, batch.points_in_batch(view.query_count()),
                   block_size,
                   GlobalKernelBody<Point>{view, eps * eps, batch, sink});
}

template <typename Point>
cudasim::KernelStats run_count_batch(cudasim::Device& device,
                                     const GridView<Point>& view, float eps,
                                     BatchSpec batch, std::uint32_t* counts,
                                     unsigned block_size) {
  return run_batch(device, batch.points_in_batch(view.query_count()),
                   block_size,
                   CountBatchKernelBody<Point>{view, eps * eps, batch, counts});
}

template <typename Point>
cudasim::KernelStats run_fill_csr(cudasim::Device& device,
                                  const GridView<Point>& view,
                                  float eps, BatchSpec batch,
                                  const std::uint32_t* offsets,
                                  PointId* values, unsigned block_size) {
  return run_batch(
      device, batch.points_in_batch(view.query_count()), block_size,
      FillCsrKernelBody<Point>{view, eps * eps, batch, offsets, values});
}

template <typename Point>
cudasim::KernelStats run_fused_batch(cudasim::Device& device,
                                     const GridView<Point>& view, float eps,
                                     BatchSpec batch, StreamingDbscan& sink,
                                     unsigned block_size) {
  return run_batch(device, batch.points_in_batch(view.query_count()),
                   block_size,
                   FusedKernelBody<Point>{view, eps * eps, batch,
                                         sink.fused_view(), &sink});
}

std::size_t shared_kernel_smem_bytes(unsigned block_size) {
  return kSmemHeader +
         static_cast<std::size_t>(block_size) *
             (2 * sizeof(Point2) + 2 * sizeof(PointId));
}

cudasim::KernelStats run_calc_shared(cudasim::Device& device,
                                     const GridView<Point2>& view,
                                     const std::uint32_t* schedule,
                                     std::uint32_t num_cells, float eps,
                                     ResultSinkView sink,
                                     unsigned block_size) {
  SharedKernelParams params{view, schedule, eps * eps, sink};
  auto gen = [params](cudasim::CoopCtx& ctx) {
    return shared_kernel_thread(ctx, params);
  };
  return cudasim::run_coop_kernel(device, num_cells, block_size,
                                  shared_kernel_smem_bytes(block_size), gen);
}

template <typename Point>
std::uint64_t run_count_kernel(cudasim::Device& device,
                               const GridView<Point>& view, float eps,
                               std::uint32_t sample_stride,
                               cudasim::KernelStats* stats_out,
                               unsigned block_size) {
  if (sample_stride == 0) sample_stride = 1;
  std::atomic<std::uint64_t> total{0};
  const std::uint64_t samples =
      (view.query_count() + sample_stride - 1) / sample_stride;
  const unsigned grid = grid_dim_for(samples, block_size);
  CountKernelBody<Point> body{view, eps * eps, sample_stride, &total};
  const cudasim::KernelStats stats =
      cudasim::run_flat_kernel(device, grid, block_size, body);
  if (stats_out != nullptr) *stats_out = stats;
  return total.load(std::memory_order_relaxed);
}

// Every grid kernel serves 2-D and 3-D points.
#define HDBSCAN_GRID_KERNELS(Point)                                          \
  template cudasim::KernelStats run_calc_global(                             \
      cudasim::Device&, const GridView<Point>&, float, BatchSpec,            \
      ResultSinkView, unsigned);                                             \
  template std::uint64_t run_count_kernel(cudasim::Device&,                  \
                                          const GridView<Point>&, float,     \
                                          std::uint32_t,                     \
                                          cudasim::KernelStats*, unsigned);  \
  template cudasim::KernelStats run_count_batch(                             \
      cudasim::Device&, const GridView<Point>&, float, BatchSpec,            \
      std::uint32_t*, unsigned);                                             \
  template cudasim::KernelStats run_fill_csr(                                \
      cudasim::Device&, const GridView<Point>&, float, BatchSpec,            \
      const std::uint32_t*, PointId*, unsigned);                             \
  template cudasim::KernelStats run_fused_batch(                             \
      cudasim::Device&, const GridView<Point>&, float, BatchSpec,            \
      StreamingDbscan&, unsigned);
HDBSCAN_GRID_KERNELS(Point2)
HDBSCAN_GRID_KERNELS(Point3)
#undef HDBSCAN_GRID_KERNELS

}  // namespace hdbscan::gpu
