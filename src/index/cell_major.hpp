// Cell-major layout of the grid builder (build_grid_index, 2-D and 3-D):
// one stable counting sort of input ids by linear eps-cell id, plus the
// input checks that keep every float->integer cast of the build defined
// (also used by the cell-graph pass).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "index/grid_index.hpp"  // CellRange

namespace hdbscan::detail {

/// Thrown by the extent pass for the first input point with a NaN or
/// infinite coordinate: no cell can hold it.
[[noreturn]] inline void throw_non_finite(const char* who, std::size_t id) {
  throw std::invalid_argument(std::string(who) + ": input point " +
                              std::to_string(id) +
                              " has a non-finite coordinate");
}

/// floor(extent / eps) + 1 cells along one axis: the same float quotient
/// the cell functions take, returned in double so the caller can bound the
/// cell count before any integer cast (an extent whose quotient overflows
/// a float comes back as +inf and fails every bound).
[[nodiscard]] inline double axis_cells(float lo, float hi, float eps) noexcept {
  return std::floor(static_cast<double>((hi - lo) / eps)) + 1.0;
}

/// Throws unless `cells` (a product of axis_cells values) fits both
/// `max_cells` and the 32-bit linear cell id.
inline void check_cell_count(double cells, std::uint64_t max_cells,
                             const char* who) {
  const double limit = std::min(static_cast<double>(max_cells),
                                static_cast<double>(UINT32_MAX));
  if (!(cells <= limit)) {
    throw std::invalid_argument(
        std::string(who) +
        ": cell array would exceed the configured capacity (eps too small "
        "for this extent)");
  }
}

/// Lays `input` out cell-major in `index` (a GridIndex whose params are
/// set): one stable counting sort of input ids by
/// `cell_of(point)`, so points[cells[h].begin, cells[h].end) are cell h's
/// residents in ascending input id, original_ids maps each position back
/// to its input id, and the lookup array A is the identity. Fills cells,
/// nonempty_cells and max_cell_occupancy, then verifies the ordering
/// invariant (A strictly ascending within every cell).
template <typename Index, typename Point, typename CellOf>
void fill_cell_major(Index& index, std::span<const Point> input,
                     std::size_t num_cells, const CellOf& cell_of,
                     const char* who) {
  const std::size_t n = input.size();
  std::vector<std::uint32_t> cell_of_input(n);
  std::vector<std::uint32_t> cursor(num_cells, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t h = cell_of(input[i]);
    cell_of_input[i] = h;
    ++cursor[h];
  }

  // G: [Amin, Amax) ranges by prefix sum; the counts become each cell's
  // scatter cursor.
  index.cells.resize(num_cells);
  std::uint32_t running = 0;
  for (std::size_t h = 0; h < num_cells; ++h) {
    const std::uint32_t count = cursor[h];
    index.cells[h] = CellRange{running, running + count};
    cursor[h] = running;
    running += count;
    if (count > 0) {
      index.nonempty_cells.push_back(static_cast<std::uint32_t>(h));
      index.max_cell_occupancy = std::max(index.max_cell_occupancy, count);
    }
  }

  // Scatter in input order: within a cell, positions ascend with input id.
  index.points.resize(n);
  index.original_ids.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t pos = cursor[cell_of_input[i]]++;
    index.points[pos] = input[i];
    index.original_ids[pos] = static_cast<PointId>(i);
  }
  index.lookup.resize(n);
  std::iota(index.lookup.begin(), index.lookup.end(), PointId{0});

  // Ordering invariant: the half-comparison kernels binary-search their
  // own position in their cell's slice of A and scan only the suffix, so
  // every slice must be strictly ascending. The identity A satisfies it by
  // construction; verify it here (one linear pass) rather than trusting it
  // silently.
  for (const std::uint32_t h : index.nonempty_cells) {
    const CellRange range = index.cells[h];
    for (std::uint32_t a = range.begin + 1; a < range.end; ++a) {
      if (index.lookup[a - 1] >= index.lookup[a]) {
        throw std::logic_error(
            std::string(who) +
            ": lookup ids not ascending within a cell (ordering invariant "
            "violated)");
      }
    }
  }
}

}  // namespace hdbscan::detail
