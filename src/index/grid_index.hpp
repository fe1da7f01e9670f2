// Grid index for epsilon-neighborhood searches (paper §IV, Figure 1),
// written once for 2-D and 3-D points (GridIndex<Point2>, GridIndex<Point3>).
//
// The index consists of:
//   * D  — the database in cell-major order: one stable counting sort by
//          linear cell id, so each cell's points are contiguous in memory
//          (locality optimization; the paper pre-sorts by unit-width bins
//          instead, see DESIGN.md §10);
//   * G  — an array of eps-wide square (2-D) or cube (3-D) cells, each
//          holding a range [Amin, Amax] into the lookup array;
//   * A  — the lookup array of point ids, |A| == |D| (a point lives in
//          exactly one cell, so no per-cell over-allocation is needed). On
//          a full index D is already cell-major, so A is the identity;
//          shard sub-indexes relabel through it;
//   * S  — the schedule of non-empty cells (GPUCalcShared assigns one
//          thread block per entry of S).
//
// Because cells are eps wide, all neighbors within eps of a point are
// guaranteed to lie in the point's cell or its 3^d - 1 adjacent cells (8 in
// 2-D, 26 in 3-D).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace hdbscan {

/// Half-open range [begin, end) into the lookup array A.
struct CellRange {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;

  [[nodiscard]] bool empty() const noexcept { return begin == end; }
  [[nodiscard]] std::uint32_t count() const noexcept { return end - begin; }
};

/// Geometry of the grid; a POD so it can be passed to kernels by value.
/// Cells are linearized row-major with axis 0 fastest:
/// h = (c_z * shape[1] + c_y) * shape[0] + c_x.
template <typename Point>
struct GridParams {
  static constexpr int kDims = PointTraits<Point>::kDims;

  std::array<float, kDims> origin{};  ///< per-axis minimum of the data
  float eps = 0.0f;
  std::array<std::uint32_t, kDims> shape{};  ///< cells per axis

  [[nodiscard]] std::uint64_t num_cells() const noexcept {
    std::uint64_t n = 1;
    for (const std::uint32_t s : shape) n *= s;
    return n;
  }

  /// Cell coordinate of value `v` along `axis`, clamped into the grid.
  [[nodiscard]] std::uint32_t axis_cell(float v, int axis) const noexcept {
    auto c = static_cast<std::int64_t>((v - origin[axis]) / eps);
    if (c < 0) c = 0;
    if (c >= static_cast<std::int64_t>(shape[axis])) c = shape[axis] - 1;
    return static_cast<std::uint32_t>(c);
  }

  /// Linearized cell id h of a point (paper: h computed from its coords).
  [[nodiscard]] std::uint32_t linear_cell(const Point& p) const noexcept {
    std::uint32_t h = 0;
    for (int axis = kDims - 1; axis >= 0; --axis) {
      const float v = PointTraits<Point>::coord(p, axis);
      h = h * shape[axis] + axis_cell(v, axis);
    }
    return h;
  }
};

namespace detail {

/// 3^D: the cells of the stencil around a cell.
template <int D>
inline constexpr std::size_t kStencilSize = 3 * kStencilSize<D - 1>;
template <>
inline constexpr std::size_t kStencilSize<0> = 1;

template <int D>
using CellOffset = std::array<std::int8_t, D>;

/// The 3^d cell offsets around a cell, axis 0 fastest. Offset index order
/// is linear-id order, so the center sits in the middle and exactly the
/// offsets with a larger linear id follow it.
template <int D>
inline constexpr auto kStencil = [] {
  std::array<CellOffset<D>, kStencilSize<D>> table{};
  for (unsigned k = 0; k < table.size(); ++k) {
    unsigned digits = k;
    for (int axis = 0; axis < D; ++axis) {
      const int step = static_cast<int>(digits % 3) - 1;
      table[k][axis] = static_cast<std::int8_t>(step);
      digits /= 3;
    }
  }
  return table;
}();

/// The offsets of kStencil with a larger linear id than the center: 4 in
/// 2-D, 13 in 3-D, in ascending linear id.
template <int D>
inline constexpr auto kForwardStencil = [] {
  constexpr std::size_t half = kStencil<D>.size() / 2;
  std::array<CellOffset<D>, half> table{};
  for (std::size_t k = 0; k < half; ++k) table[k] = kStencil<D>[half + 1 + k];
  return table;
}();

/// Writes the in-grid cells at `offsets` around `cell` to `out`, in table
/// order (ascending linear id); cells outside the grid are clipped. Each
/// axis is tested only where the offset leaves the cell's own column, so
/// the 2-D forward stencil costs what a hand-written 4-cell version does.
template <typename Point, std::size_t N>
unsigned gather_cells(
    const GridParams<Point>& params, std::uint32_t cell,
    const std::array<CellOffset<GridParams<Point>::kDims>, N>& offsets,
    std::uint32_t* out) noexcept {
  constexpr int D = GridParams<Point>::kDims;
  std::array<bool, D> has_below{};
  std::array<bool, D> has_above{};
  std::array<std::int64_t, D> stride{};
  std::uint32_t rest = cell;
  std::int64_t step = 1;
  for (int axis = 0; axis < D; ++axis) {
    const std::uint32_t c = axis + 1 < D ? rest % params.shape[axis] : rest;
    rest /= params.shape[axis];
    has_below[axis] = c > 0;
    has_above[axis] = c + 1 < params.shape[axis];
    stride[axis] = step;
    step *= params.shape[axis];
  }
  unsigned n = 0;
  for (const CellOffset<D>& offset : offsets) {
    bool inside = true;
    std::int64_t delta = 0;
    for (int axis = 0; axis < D; ++axis) {
      if (offset[axis] < 0) inside = inside && has_below[axis];
      if (offset[axis] > 0) inside = inside && has_above[axis];
      delta += offset[axis] * stride[axis];
    }
    if (inside) out[n++] = static_cast<std::uint32_t>(cell + delta);
  }
  return n;
}

}  // namespace detail

/// Cells in the stencil around a cell: 9 in 2-D, 27 in 3-D.
template <typename Point>
inline constexpr std::size_t kStencilCells =
    detail::kStencilSize<PointTraits<Point>::kDims>;

/// Output buffer of the stencil functions.
template <typename Point>
using StencilCells = std::array<std::uint32_t, kStencilCells<Point>>;

/// Fills `out` with the linear ids of the (at most 3^d) cells that can
/// contain points within eps of anything in `cell`, in ascending order;
/// returns how many. Cells outside the grid boundary are clipped.
template <typename Point>
unsigned get_neighbor_cells(const GridParams<Point>& params,
                            std::uint32_t cell,
                            StencilCells<Point>& out) noexcept {
  return detail::gather_cells(
      params, cell, detail::kStencil<GridParams<Point>::kDims>, out.data());
}

/// Forward half of the stencil: the (at most 4 in 2-D, 13 in 3-D) adjacent
/// cells with linear id strictly greater than `cell`, in ascending order —
/// in 2-D (+1, 0) plus the whole dy = +1 row; in 3-D that dz = 0 half plus
/// the whole dz = +1 plane. Cell adjacency is symmetric, so every adjacent
/// cell pair (a, b) with a != b appears in exactly one of the two forward
/// stencils; the kernels' unidirectional scan therefore tests every
/// cross-cell candidate pair exactly once. The cell itself is NOT included
/// — same-cell pairs are halved by the ordering invariant instead (see
/// build_grid_index).
template <typename Point>
unsigned get_forward_neighbor_cells(const GridParams<Point>& params,
                                    std::uint32_t cell,
                                    StencilCells<Point>& out) noexcept {
  return detail::gather_cells(
      params, cell, detail::kForwardStencil<GridParams<Point>::kDims>,
      out.data());
}

/// Host-resident grid index.
///
/// A *shard sub-index* (core/shard_planner.hpp) reuses this struct for a
/// contiguous slab of grid-cell rows: `params` keeps the GLOBAL geometry
/// (so every point hashes to the same cell id it has in the full index),
/// `cells` holds only the slab — cells[h - cell_base] is global cell h —
/// and `points`/`lookup` hold the slab's residents in *owned-first* order:
/// the first `num_query` points are the ones this shard owns (ascending
/// global id), followed by the epsilon-halo ghosts (ascending global id).
/// Kernels and host queries only ever query owned points, whose full
/// stencil lies inside the slab by construction. Shard slabs exist only
/// for 2-D indexes.
template <typename Point>
struct GridIndex {
  GridParams<Point> params;
  std::vector<Point> points;           ///< D, cell-major
  std::vector<PointId> original_ids;   ///< points[i] came from input[original_ids[i]]
  std::vector<CellRange> cells;        ///< G
  std::vector<PointId> lookup;         ///< A
  std::vector<std::uint32_t> nonempty_cells;  ///< S
  std::uint32_t max_cell_occupancy = 0;
  /// Linear id of cells[0] (nonzero only for shard sub-indexes).
  std::uint32_t cell_base = 0;
  /// Number of query (owned) points; 0 means every point is owned. A
  /// shard's ghost points are resident for distance tests but never
  /// queried, counted, or assigned to batches.
  std::uint32_t num_query = 0;
  /// Value-emission map: neighbor candidates are emitted as emit_ids[c]
  /// instead of their resident id c. Empty means identity. Shard
  /// sub-indexes set this to local->global so kernels produce globally
  /// addressed neighbor values directly — the merge then never touches
  /// individual pairs. Comparisons (the half-scan ordering rule) stay in
  /// resident-id space; only the emitted value is mapped.
  std::vector<PointId> emit_ids;

  [[nodiscard]] std::size_t size() const noexcept { return points.size(); }
  [[nodiscard]] std::size_t query_count() const noexcept {
    return num_query != 0 ? num_query : points.size();
  }
  [[nodiscard]] PointId emit(PointId c) const noexcept {
    return emit_ids.empty() ? c : emit_ids[c];
  }
};

/// Non-owning view of the index data; what kernels receive. The pointers
/// may reference host vectors (tests) or device buffers (the real pipeline).
template <typename Point>
struct GridView {
  GridParams<Point> params;
  const Point* points = nullptr;
  std::uint32_t num_points = 0;  ///< resident points (extent of the arrays)
  const CellRange* cells = nullptr;
  const PointId* lookup = nullptr;
  std::uint32_t cell_base = 0;  ///< linear id of cells[0] (shard slabs)
  std::uint32_t num_query = 0;  ///< owned prefix; 0 = num_points
  /// Optional value-emission map (GridIndex::emit_ids); null = identity.
  const PointId* emit_ids = nullptr;

  /// The batch/query domain: kernels iterate points [0, query_count()).
  [[nodiscard]] std::uint32_t query_count() const noexcept {
    return num_query != 0 ? num_query : num_points;
  }

  [[nodiscard]] static GridView of(const GridIndex<Point>& g) noexcept {
    return GridView{g.params,
                    g.points.data(),
                    static_cast<std::uint32_t>(g.points.size()),
                    g.cells.data(),
                    g.lookup.data(),
                    g.cell_base,
                    g.num_query,
                    g.emit_ids.empty() ? nullptr : g.emit_ids.data()};
  }
};

/// Builds the grid index for database `input` and search radius `eps`.
/// Throws std::invalid_argument for eps <= 0, an empty database, a NaN or
/// infinite coordinate (naming the first such input id), or a grid that
/// would exceed `max_cells` (the same capacity concern a 5 GB GPU imposes
/// on the cell array; the cell count is bounded in double before any
/// integer cast, so a huge extent cannot wrap past the check).
///
/// Layout: one stable counting sort of input ids by linear cell id, so D
/// is cell-major — a PointId is the point's position in cell order, with
/// ascending input id within a cell (deterministic) — cells[h] is cell
/// h's contiguous id range, and A is the identity.
///
/// Ordering invariant (load-bearing for the kernels' half scan): within
/// every cell's [begin, end) range the lookup array A stores point ids in
/// strictly ascending order. The identity A satisfies it by construction;
/// the builder verifies it before returning. Half-comparison kernels rely
/// on it to binary-search their own lookup position and scan only
/// same-cell candidates with id >= their own.
GridIndex<Point2> build_grid_index(std::span<const Point2> input, float eps,
                                   std::uint64_t max_cells = 1ull << 27);
GridIndex<Point3> build_grid_index(std::span<const Point3> input, float eps,
                                   std::uint64_t max_cells = 1ull << 27);

/// Reference search used by tests and the host fallback: all point ids
/// (into the index's reordered D) within eps of q.
template <typename Point>
void grid_query(const GridIndex<Point>& index, const Point& q, float eps,
                std::vector<PointId>& out);

/// Forward-only reference search mirroring the kernels' half-scan
/// traversal for point id `query` (an id into the index's reordered D):
/// same-cell candidates with id >= query (including query itself) plus all
/// points of the forward-stencil cells, distance-filtered. The union of
/// forward results over all queries, transposed, is the full neighbor
/// table — the host-fallback shard builder and the equivalence tests use
/// exactly this.
template <typename Point>
void grid_query_forward(const GridIndex<Point>& index, PointId query,
                        float eps, std::vector<PointId>& out);

}  // namespace hdbscan
