#include "index/grid_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "index/cell_major.hpp"

namespace hdbscan {

namespace {

template <typename Point>
GridIndex<Point> build(std::span<const Point> input, float eps,
                       std::uint64_t max_cells) {
  using Traits = PointTraits<Point>;
  constexpr int kDims = Traits::kDims;
  if (input.empty()) throw std::invalid_argument("grid index: empty database");
  if (!(eps > 0.0f) || !std::isfinite(eps)) {
    throw std::invalid_argument("grid index: eps must be positive and finite");
  }

  // Dataset extent. A NaN or infinite coordinate has no cell (and
  // std::min/max would skip a NaN), so refuse it here, before any cast.
  std::array<float, kDims> lo;
  std::array<float, kDims> hi;
  lo.fill(std::numeric_limits<float>::max());
  hi.fill(std::numeric_limits<float>::lowest());
  for (std::size_t i = 0; i < input.size(); ++i) {
    for (int axis = 0; axis < kDims; ++axis) {
      const float v = Traits::coord(input[i], axis);
      if (!std::isfinite(v)) detail::throw_non_finite("grid index", i);
      lo[axis] = std::min(lo[axis], v);
      hi[axis] = std::max(hi[axis], v);
    }
  }

  // Grid geometry, bounded in double before the casts to cell counts.
  GridIndex<Point> index;
  GridParams<Point>& params = index.params;
  params.origin = lo;
  params.eps = eps;
  std::array<double, kDims> cells;
  double num_cells = 1.0;
  for (int axis = 0; axis < kDims; ++axis) {
    cells[axis] = detail::axis_cells(lo[axis], hi[axis], eps);
    num_cells *= cells[axis];
  }
  detail::check_cell_count(num_cells, max_cells, "grid index");
  for (int axis = 0; axis < kDims; ++axis) {
    params.shape[axis] = static_cast<std::uint32_t>(cells[axis]);
  }

  // One stable counting sort by linear cell id: D is cell-major, G holds
  // each cell's contiguous [Amin, Amax) range and A is the identity.
  detail::fill_cell_major(
      index, input, static_cast<std::size_t>(params.num_cells()),
      [&params](const Point& p) { return params.linear_cell(p); },
      "grid index");
  return index;
}

/// Appends the ids in A[range) whose points lie within eps of `q`.
template <typename Point>
void scan_cell(const GridIndex<Point>& index, CellRange range, const Point& q,
               float eps2, std::vector<PointId>& out) {
  for (std::uint32_t a = range.begin; a < range.end; ++a) {
    const PointId id = index.lookup[a];
    if (dist2(q, index.points[id]) <= eps2) out.push_back(id);
  }
}

}  // namespace

GridIndex<Point2> build_grid_index(std::span<const Point2> input, float eps,
                                   std::uint64_t max_cells) {
  return build(input, eps, max_cells);
}

GridIndex<Point3> build_grid_index(std::span<const Point3> input, float eps,
                                   std::uint64_t max_cells) {
  return build(input, eps, max_cells);
}

template <typename Point>
void grid_query(const GridIndex<Point>& index, const Point& q, float eps,
                std::vector<PointId>& out) {
  out.clear();
  StencilCells<Point> neighbors{};
  const unsigned n =
      get_neighbor_cells(index.params, index.params.linear_cell(q), neighbors);
  for (unsigned c = 0; c < n; ++c) {
    // Shard sub-indexes hold a slab: global cell h lives at h - cell_base.
    // Queries for owned points never leave the slab; the bound check only
    // guards direct queries of ghost/outside points (unsigned wrap covers
    // cells below the base).
    const std::uint32_t local = neighbors[c] - index.cell_base;
    if (local >= index.cells.size()) continue;
    scan_cell(index, index.cells[local], q, eps * eps, out);
  }
}

template <typename Point>
void grid_query_forward(const GridIndex<Point>& index, PointId query,
                        float eps, std::vector<PointId>& out) {
  out.clear();
  const float eps2 = eps * eps;
  const Point point = index.points[query];
  const std::uint32_t cell = index.params.linear_cell(point);

  // Same cell: the ordering invariant makes the slice of A ascending, so
  // candidates with id >= query occupy a suffix starting at lower_bound.
  const CellRange own = index.cells[cell - index.cell_base];
  const auto* first = index.lookup.data() + own.begin;
  const auto* last = index.lookup.data() + own.end;
  const auto* from = std::lower_bound(first, last, query);
  scan_cell(index,
            CellRange{static_cast<std::uint32_t>(from - index.lookup.data()),
                      own.end},
            point, eps2, out);

  StencilCells<Point> cells{};
  const unsigned n = get_forward_neighbor_cells(index.params, cell, cells);
  for (unsigned c = 0; c < n; ++c) {
    const std::uint32_t local = cells[c] - index.cell_base;
    if (local >= index.cells.size()) continue;
    scan_cell(index, index.cells[local], point, eps2, out);
  }
}

template void grid_query(const GridIndex<Point2>&, const Point2&, float,
                         std::vector<PointId>&);
template void grid_query(const GridIndex<Point3>&, const Point3&, float,
                         std::vector<PointId>&);
template void grid_query_forward(const GridIndex<Point2>&, PointId, float,
                                 std::vector<PointId>&);
template void grid_query_forward(const GridIndex<Point3>&, PointId, float,
                                 std::vector<PointId>&);

}  // namespace hdbscan
