#include "core/hybrid_dbscan3.hpp"

#include "common/timer.hpp"
#include "core/cell_graph.hpp"
#include "core/hybrid_dbscan.hpp"  // unmap_labels
#include "cudasim/buffer.hpp"
#include "cudasim/buffer_pool.hpp"
#include "cudasim/sort.hpp"
#include "cudasim/stream.hpp"
#include "dbscan/dbscan.hpp"
#include "gpu/kernels.hpp"

namespace hdbscan {

namespace {

/// D, G and A of a 3-D index uploaded to the device: everything the
/// traversal kernels read (the schedule S feeds only GPUCalcShared, which
/// is 2-D only, so it stays on the host).
struct DeviceGrid3 {
  DeviceGrid3(cudasim::Device& device, const GridIndex<Point3>& index)
      : stream(device),
        points(device, index.points.size()),
        cells(device, index.cells.size()),
        lookup(device, index.lookup.size()),
        view{index.params, points.device_data(),
             static_cast<std::uint32_t>(index.points.size()),
             cells.device_data(), lookup.device_data()} {
    stream.memcpy_to_device(points, index.points.data(), index.points.size());
    stream.memcpy_to_device(cells, index.cells.data(), index.cells.size());
    stream.memcpy_to_device(lookup, index.lookup.data(), index.lookup.size());
    stream.synchronize();
  }

  /// Modeled H2D time of the upload (pageable host memory).
  [[nodiscard]] double upload_seconds(const cudasim::DeviceConfig& c) const {
    return cudasim::modeled_transfer_seconds(
        c, points.bytes() + cells.bytes() + lookup.bytes(), false);
  }

  cudasim::Stream stream;
  cudasim::DeviceBuffer<Point3> points;
  cudasim::DeviceBuffer<CellRange> cells;
  cudasim::DeviceBuffer<PointId> lookup;
  GridView<Point3> view;
};

}  // namespace

NeighborTable build_neighbor_table_device3(cudasim::Device& device,
                                           const GridIndex<Point3>& index,
                                           float eps, BuildReport* report) {
  WallTimer total_timer;
  BuildReport local;
  const DeviceGrid3 grid(device, index);
  local.modeled_table_seconds += grid.upload_seconds(device.config());

  // Two-pass CSR build, single batch: count per point, scan to exact
  // offsets, fill straight into the slots. No device sort, no pair keys on
  // the wire — only the offsets array and the bare neighbor ids go D2H.
  const auto npts = static_cast<std::uint32_t>(index.points.size());
  cudasim::PooledDeviceBuffer<std::uint32_t> d_counts(
      device, std::max<std::uint32_t>(1, npts));
  cudasim::KernelStats stats = gpu::run_count_batch(
      device, grid.view, eps, {}, d_counts.device_data());
  local.modeled_table_seconds += stats.modeled_seconds;
  local.kernel_flops += stats.work.flops;

  const std::uint64_t pairs = cudasim::exclusive_scan(device, d_counts, npts);
  local.modeled_table_seconds += cudasim::modeled_scan_seconds(
      device.config(), npts * sizeof(std::uint32_t));

  cudasim::PooledDeviceBuffer<PointId> d_values(
      device, std::max<std::uint64_t>(1, pairs));
  stats = gpu::run_fill_csr(device, grid.view, eps, {},
                            d_counts.device_data(), d_values.device_data());
  local.modeled_table_seconds += stats.modeled_seconds;
  local.kernel_flops += stats.work.flops;

  const std::uint64_t offset_bytes = npts * sizeof(std::uint32_t);
  const std::uint64_t value_bytes = pairs * sizeof(PointId);
  cudasim::PooledPinnedBuffer<std::uint32_t> offsets_staging(device, npts);
  cudasim::PooledPinnedBuffer<PointId> values_staging(device, pairs);
  device.blocking_transfer(offsets_staging.data(), d_counts.device_data(),
                           offset_bytes, false, true);
  device.blocking_transfer(values_staging.data(), d_values.device_data(),
                           value_bytes, false, true);
  local.modeled_table_seconds +=
      cudasim::modeled_transfer_seconds(device.config(), offset_bytes, true) +
      cudasim::modeled_transfer_seconds(device.config(), value_bytes, true);
  // Page-lock cost only for staging the pool had to freshly pin.
  std::uint64_t fresh_pinned = 0;
  if (offsets_staging.fresh()) fresh_pinned += offset_bytes;
  if (values_staging.fresh()) fresh_pinned += value_bytes;
  local.modeled_table_seconds +=
      cudasim::modeled_pinned_alloc_seconds(device.config(), fresh_pinned);

  NeighborTable table(index.size());
  table.reserve_values(pairs);
  ThreadCpuTimer append_timer;
  table.append_csr_batch(0, 1, {offsets_staging.data(), npts},
                         {values_staging.data(), pairs});
  local.modeled_table_seconds += append_timer.seconds();

  local.expand_seconds = table.expand_half_table(
      static_cast<unsigned>(std::max(1, device.config().host_cores)));
  local.modeled_table_seconds += local.expand_seconds;

  local.total_pairs = table.total_pairs();
  local.table_seconds = total_timer.seconds();
  if (report != nullptr) *report = local;
  return table;
}

ClusterResult hybrid_dbscan3(cudasim::Device& device,
                             std::span<const Point3> points, float eps,
                             int minpts, BuildReport* report,
                             ClusterQuality quality) {
  if (quality == ClusterQuality::kCellGraph) {
    WallTimer total_timer;
    CellGraphReport cg;
    ClusterResult out =
        cell_graph_dbscan3(points, eps, minpts, device.config(), &cg);
    if (report != nullptr) {
      BuildReport local;
      local.total_pairs = cg.distance_tests;
      local.table_seconds = total_timer.seconds();
      local.modeled_table_seconds = cg.modeled_seconds;
      *report = local;
    }
    return out;
  }
  const GridIndex<Point3> index = build_grid_index(points, eps);
  const NeighborTable table =
      build_neighbor_table_device3(device, index, eps, report);
  return unmap_labels(dbscan_neighbor_table(table, minpts),
                      index.original_ids);
}

ClusterResult fused_dbscan3(cudasim::Device& device,
                            std::span<const Point3> points, float eps,
                            int minpts, BuildReport* report) {
  WallTimer total_timer;
  BuildReport local;
  const GridIndex<Point3> index = build_grid_index(points, eps);
  // The fused kernel needs only D, G and A on the device: no counts
  // buffer, no CSR values, no staging.
  const DeviceGrid3 grid(device, index);
  local.modeled_table_seconds += grid.upload_seconds(device.config());

  StreamingDbscan consumer(index.size(), minpts);
  const cudasim::KernelStats stats =
      gpu::run_fused_batch(device, grid.view, eps, {}, consumer);
  local.modeled_table_seconds += stats.modeled_seconds;
  local.kernel_flops += stats.work.flops;

  const ClusterResult indexed = consumer.finalize();
  const StreamingDbscan::Stats& st = consumer.stats();
  // Parked edges are the only result traffic; charge their D2H at the
  // pinned rate, as the 2-D orchestrator does.
  local.modeled_table_seconds += cudasim::modeled_transfer_seconds(
      device.config(), st.fused_parked * sizeof(NeighborPair), true);
  local.total_pairs = st.edges_seen;
  local.table_seconds = total_timer.seconds();
  if (report != nullptr) *report = local;
  return unmap_labels(indexed, index.original_ids);
}

}  // namespace hdbscan
