#include "core/estimator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "gpu/kernels.hpp"

namespace hdbscan {

ResultSizeEstimate estimate_result_size(cudasim::Device& device,
                                        const GridView<Point2>& view, float eps,
                                        double sample_fraction,
                                        unsigned block_size) {
  if (!(sample_fraction > 0.0) || sample_fraction > 1.0) {
    throw std::invalid_argument("estimate_result_size: fraction in (0, 1]");
  }
  ResultSizeEstimate est;
  est.sample_stride = static_cast<std::uint32_t>(
      std::max(1.0, std::round(1.0 / sample_fraction)));
  // Never stride past the whole dataset: tiny inputs fall back to a census.
  est.sample_stride = std::min<std::uint32_t>(
      est.sample_stride, std::max<std::uint32_t>(1, view.query_count()));
  est.sampled_pairs = gpu::run_count_kernel(
      device, view, eps, est.sample_stride, &est.kernel_stats, block_size);
  est.estimated_total =
      est.sampled_pairs * static_cast<std::uint64_t>(est.sample_stride);
  est.exact = est.sample_stride == 1;
  return est;
}

}  // namespace hdbscan
