// Result-set size estimation (paper §VI).
//
// A lightweight kernel counts the neighbors of a uniformly distributed
// sample of f * |D| points (f = 0.01). Because D is spatially sorted at
// index-build time, striding through D samples the space uniformly. The
// kernel returns only the count e_b — no result set, so it runs in
// negligible time — and the total is extrapolated as a_b = e_b / f.
#pragma once

#include "cudasim/device.hpp"
#include "cudasim/metrics.hpp"
#include "index/grid_index.hpp"

namespace hdbscan {

struct ResultSizeEstimate {
  std::uint64_t sampled_pairs = 0;    ///< e_b, pairs found in the sample
  std::uint64_t estimated_total = 0;  ///< a_b = e_b / f
  std::uint32_t sample_stride = 1;
  /// True when the sample was a full census (stride 1): a_b is exact, so
  /// downstream consumers (e.g. the CSR builder's buffer sizing) know the
  /// alpha over-provision is pure headroom rather than variance cover.
  bool exact = false;
  cudasim::KernelStats kernel_stats;
};

/// Runs the count kernel over every `stride`-th point, stride = round(1/f).
/// `view` may point at host vectors or device buffers.
ResultSizeEstimate estimate_result_size(cudasim::Device& device,
                                        const GridView<Point2>& view, float eps,
                                        double sample_fraction = 0.01,
                                        unsigned block_size = 256);

}  // namespace hdbscan
