// 3-D epsilon-neighborhood kernels: GPUCalcGlobal generalized to the
// 27-cell neighborhood, plus the count kernel for result sizing.
#pragma once

#include <cstdint>

#include "cudasim/device.hpp"
#include "cudasim/kernel.hpp"
#include "gpu/kernels.hpp"  // BatchSpec
#include "gpu/result_sink.hpp"
#include "index/grid_index3.hpp"

namespace hdbscan::gpu {

/// 3-D GPUCalcGlobal, synchronous; same strided batching as the 2-D kernel.
/// Tests each pair once and emits forward rows only (see run_calc_global).
cudasim::KernelStats run_calc_global3(cudasim::Device& device,
                                      const GridView3& view, float eps,
                                      BatchSpec batch, ResultSinkView sink,
                                      unsigned block_size = kDefaultBlockSize);

/// 3-D two-pass CSR builder, pass 1: forward-row neighbor counts (see the
/// 2-D run_count_batch).
cudasim::KernelStats run_count_batch3(cudasim::Device& device,
                                      const GridView3& view, float eps,
                                      BatchSpec batch, std::uint32_t* counts,
                                      unsigned block_size = kDefaultBlockSize);

/// 3-D two-pass CSR builder, pass 2: fill forward rows into exact CSR
/// slots (see the 2-D run_fill_csr).
cudasim::KernelStats run_fill_csr3(cudasim::Device& device,
                                   const GridView3& view, float eps,
                                   BatchSpec batch,
                                   const std::uint32_t* offsets,
                                   PointId* values,
                                   unsigned block_size = kDefaultBlockSize);

/// 3-D fused no-table clustering kernel (see the 2-D run_fused_batch):
/// counts degrees and unions both-core edges directly into `sink`'s
/// union-find during the traversal — no counts buffer, no CSR values, no
/// D2H result transfer. Undecidable pairs are parked in the sink and
/// settled by finalize(). Labels after sink.finalize() are bit-identical
/// to the batch-table path.
cudasim::KernelStats run_fused_batch3(cudasim::Device& device,
                                      const GridView3& view, float eps,
                                      BatchSpec batch, StreamingDbscan& sink,
                                      unsigned block_size = kDefaultBlockSize);

/// 3-D neighbor-count kernel (estimator / exact census with stride 1).
std::uint64_t run_count_kernel3(cudasim::Device& device, const GridView3& view,
                                float eps, std::uint32_t sample_stride,
                                cudasim::KernelStats* stats_out = nullptr,
                                unsigned block_size = kDefaultBlockSize);

}  // namespace hdbscan::gpu
