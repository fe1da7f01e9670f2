// The paper's two epsilon-neighborhood GPU kernels plus the result-size
// estimation kernel for the batching scheme.
//
//  * GPUCalcGlobal (Alg. 2): one thread per point; reads candidates from
//    the forward half of the 3^d adjacent grid cells straight out of
//    global memory.
//  * GPUCalcShared (Alg. 3): one thread block per non-empty grid cell;
//    pages origin- and comparison-cell points into shared memory in
//    block-sized tiles with barriers between phases. When a cell holds
//    more points than the block size the extra tiling loop the paper
//    mentions kicks in.
//  * Count kernel (§VI): counts neighbors of a uniform sample of points to
//    produce the result-size estimate e_b without materializing results.
//
// Batched execution (§VI, Fig. 2): batch l of n_b processes points
// i = gid * n_b + l, so every batch samples the (spatially sorted) database
// uniformly and batch result sizes stay nearly equal.
//
// Each grid kernel body is written once over the point type: the
// `GridView<Point>` templates below are instantiated for Point2 and Point3
// (3-D cells have a 27-cell stencil, 13 of it forward, and a distance test
// charges 9 FLOPs instead of 6). GPUCalcShared is 2-D only.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "cudasim/device.hpp"
#include "cudasim/kernel.hpp"
#include "dbscan/streaming_dbscan.hpp"
#include "gpu/result_sink.hpp"
#include "index/grid_index.hpp"

namespace hdbscan::gpu {

/// Block size used throughout the paper's evaluation.
inline constexpr unsigned kDefaultBlockSize = 256;

/// Which slice of the strided point assignment a kernel invocation covers.
struct BatchSpec {
  std::uint32_t batch = 0;
  std::uint32_t num_batches = 1;

  /// Number of points batch `batch` processes out of `n` total.
  [[nodiscard]] std::uint32_t points_in_batch(std::uint32_t n) const noexcept {
    const std::uint32_t base = n / num_batches;
    const std::uint32_t rem = n % num_batches;
    return base + (batch < rem ? 1u : 0u);
  }
};

/// GPUCalcGlobal, synchronous (runs on the calling thread + executor pool).
/// Each candidate pair is tested once and only the *forward* rows are
/// emitted (same-cell candidates at/after the query's lookup position plus
/// the forward stencil); the caller restores symmetry afterwards via
/// NeighborTable::expand_half_table.
template <typename Point>
cudasim::KernelStats run_calc_global(cudasim::Device& device,
                                     const GridView<Point>& view, float eps,
                                     BatchSpec batch, ResultSinkView sink,
                                     unsigned block_size = kDefaultBlockSize);

/// GPUCalcShared, synchronous. `schedule` maps each block to a (non-empty)
/// cell id; `num_cells` is the grid dimension. Each pair is tested once
/// and emitted in both directions device-side (StagedSink::push_dual), so
/// the output is already the full table.
cudasim::KernelStats run_calc_shared(cudasim::Device& device,
                                     const GridView<Point2>& view,
                                     const std::uint32_t* schedule,
                                     std::uint32_t num_cells, float eps,
                                     ResultSinkView sink,
                                     unsigned block_size = kDefaultBlockSize);

/// Two-pass CSR builder, pass 1: forward-row neighbor counts for one
/// batch. Thread g writes the forward-row length of point g of the batch
/// to counts[g] (counts must hold batch.points_in_batch(n) entries). No
/// atomics — the host transpose restores back rows after the merge.
template <typename Point>
cudasim::KernelStats run_count_batch(cudasim::Device& device,
                                     const GridView<Point>& view, float eps,
                                     BatchSpec batch, std::uint32_t* counts,
                                     unsigned block_size = kDefaultBlockSize);

/// Two-pass CSR builder, pass 2: fills forward-row neighbor ids into exact
/// CSR slots. `offsets` is the exclusive prefix scan of the pass-1 counts;
/// thread g writes its neighbors at values[offsets[g]...]. No atomics, no
/// sort needed afterwards.
template <typename Point>
cudasim::KernelStats run_fill_csr(cudasim::Device& device,
                                  const GridView<Point>& view,
                                  float eps, BatchSpec batch,
                                  const std::uint32_t* offsets,
                                  PointId* values,
                                  unsigned block_size = kDefaultBlockSize);

// --- Fused no-table clustering traversal (ClusterMode::kFused) -----------
//
// One launch does everything the count pass, scan, fill pass, transfers
// and sink hop did: thread i traverses its neighborhood once, accumulates
// its own degree locally (one fetch_add at thread end), adds the back
// contribution to degree[j] per cross pair, and — because core
// status is monotone — unions both-core pairs into the consumer's
// AtomicUnionFind on the spot. Pairs that cannot be decided yet are
// buffered thread-locally and parked through StreamingDbscan::ingest_fused
// for the compaction/finalize machinery to settle. The neighbor table is
// never materialized: the only per-pair bytes are the parked-edge writes.

/// Fused traversal over a 2-D or 3-D grid. Returns the launch's stats;
/// degrees/unions/parked edges land in `sink`.
template <typename Point>
cudasim::KernelStats run_fused_batch(cudasim::Device& device,
                                     const GridView<Point>& view, float eps,
                                     BatchSpec batch, StreamingDbscan& sink,
                                     unsigned block_size = kDefaultBlockSize);

/// Shared-memory bytes GPUCalcShared needs for a given block size (origin
/// and comparison tiles plus the neighbor-cell-id scratch).
[[nodiscard]] std::size_t shared_kernel_smem_bytes(unsigned block_size);

/// Result-size estimation kernel: counts |N_eps(p_i)| for points
/// i = 0, stride, 2*stride, ... and returns the raw sampled count e_b.
/// Runs synchronously; negligible cost by design (no result set).
template <typename Point>
std::uint64_t run_count_kernel(cudasim::Device& device,
                               const GridView<Point>& view, float eps,
                               std::uint32_t sample_stride,
                               cudasim::KernelStats* stats_out = nullptr,
                               unsigned block_size = kDefaultBlockSize);

}  // namespace hdbscan::gpu
