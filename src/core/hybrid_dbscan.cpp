#include "core/hybrid_dbscan.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "common/timer.hpp"
#include "core/cell_graph.hpp"
#include "core/fused_clustering.hpp"
#include "obs/trace.hpp"

namespace hdbscan {

namespace {

/// Cell-graph mode bypasses the device pipelines entirely: no grid index,
/// no batches, no table — the eps/sqrt(d) re-binning happens inside
/// cell_graph_dbscan and the labels come back in input order. The fused
/// traversal has nothing to fuse with here, so the combination is
/// rejected rather than silently served by a different algorithm.
ClusterResult run_cell_graph_mode(const cudasim::DeviceConfig& config,
                                  std::span<const Point2> points, float eps,
                                  int minpts, ClusterMode mode,
                                  HybridTimings& local,
                                  WallTimer& total_timer) {
  if (mode == ClusterMode::kFused) {
    throw std::invalid_argument(
        "hybrid_dbscan: ClusterQuality::kCellGraph is incompatible with "
        "ClusterMode::kFused — the cell graph replaces the traversal "
        "kernels the fused path would fuse into");
  }
  WallTimer phase_timer;
  CellGraphReport cg;
  ClusterResult out = cell_graph_dbscan(points, eps, minpts, config, &cg);
  local.dbscan_seconds = phase_timer.seconds();
  local.total_seconds = total_timer.seconds();
  local.modeled_gpu_table_seconds = cg.modeled_seconds;
  local.modeled_total_seconds = cg.modeled_seconds;
  local.build_report.total_pairs = cg.distance_tests;
  local.build_report.table_materialized = false;
  return out;
}

}  // namespace

ClusterResult unmap_labels(const ClusterResult& indexed,
                           std::span<const PointId> original_ids) {
  ClusterResult out;
  out.num_clusters = indexed.num_clusters;
  out.labels.resize(indexed.labels.size());
  for (std::size_t i = 0; i < indexed.labels.size(); ++i) {
    out.labels[original_ids[i]] = indexed.labels[i];
  }
  out.finalize_noise_count();
  return out;
}

StreamingDbscan& EpsBuild::consumer(std::size_t i) const {
  if (consumers.size() == 1) i = 0;  // fused: one consumer serves all
  if (consumers[i] == nullptr) std::rethrow_exception(rejected[i]);
  return *consumers[i];
}

EpsBuild build_for_eps(const std::vector<cudasim::Device*>& devices,
                       std::span<const Point2> points, float eps,
                       std::span<const int> minpts, ClusterMode mode,
                       const ShardedBuildOptions& options) {
  if (mode == ClusterMode::kFused &&
      std::adjacent_find(minpts.begin(), minpts.end(),
                         std::not_equal_to<>()) != minpts.end()) {
    throw std::invalid_argument(
        "build_for_eps: ClusterMode::kFused clusters one minpts per build "
        "— the traversal kernel unions into a single consumer");
  }
  std::vector<cudasim::Device*> fleet;
  std::vector<cudasim::Device*> live;
  for (cudasim::Device* d : devices) {
    if (d == nullptr) continue;
    fleet.push_back(d);
    if (!d->lost()) live.push_back(d);
  }

  EpsBuild out;
  WallTimer timer;
  GridIndex<Point2> index = [&] {
    TRACE_SPAN("index", "grid_index n=%zu", points.size());
    return build_grid_index(points, eps);
  }();
  out.index_seconds = timer.seconds();
  timer.reset();

  out.host_fallback = live.empty();
  FanoutSink fanout;
  if (!out.host_fallback && mode != ClusterMode::kBatchTable) {
    const std::size_t n_consumers =
        mode == ClusterMode::kFused ? std::min<std::size_t>(1, minpts.size())
                                    : minpts.size();
    out.consumers.resize(n_consumers);
    out.rejected.resize(n_consumers);
    for (std::size_t i = 0; i < n_consumers; ++i) {
      try {
        out.consumers[i] =
            std::make_unique<StreamingDbscan>(index.size(), minpts[i]);
        out.consumers[i]->set_cancel_token(options.policy.cancel);
        fanout.add(out.consumers[i].get());
      } catch (const std::invalid_argument&) {
        // An invalid minpts among valid ones is left out of the fan-out;
        // its siblings still stream.
        out.rejected[i] = std::current_exception();
      }
    }
    if (fanout.empty() && n_consumers > 0) {
      std::rethrow_exception(out.rejected.front());
    }
  }

  if (out.host_fallback) {
    TRACE_SPAN("host", "host_table n=%zu", points.size());
    out.table = build_neighbor_table_host(index, eps, /*num_threads=*/0);
    out.report.used_host_fallback = true;
    out.report.total_pairs = out.table.total_pairs();
  } else if (mode == ClusterMode::kFused && out.streamed()) {
    // The whole index is replicated on every live device and the strided
    // batches interleave — no slab sharding, since the kernels union
    // global ids directly.
    out.report = fused_cluster(live, index, eps, *out.consumers.front(),
                               options.policy);
  } else {
    BatchSink* sink = fanout.empty() ? nullptr : &fanout;
    out.table =
        fleet.size() == 1 && options.num_shards <= 1
            ? NeighborTableBuilder(*fleet.front(), options.policy)
                  .build(index, eps, &out.report, sink, sink == nullptr)
            : build_sharded_neighbor_table(fleet, index, eps, options,
                                           &out.report, sink,
                                           sink == nullptr);
  }
  out.build_seconds = timer.seconds();

  if (out.host_fallback) {
    out.modeled_seconds = out.index_seconds + out.build_seconds;
  } else {
    // On the reference host the consumers drain completed batches on
    // their own cores while the device builds; a fan-out feeds every
    // consumer from the same stream threads, so their slowest threads add
    // up, and the slower of build and unions is the critical path.
    double union_seconds = 0.0;
    for (const auto& c : out.consumers) {
      if (c != nullptr) union_seconds += c->stats().max_thread_consume_seconds;
    }
    out.modeled_seconds =
        out.index_seconds +
        std::max(out.report.modeled_table_seconds, union_seconds);
  }
  out.original_ids = std::move(index.original_ids);
  return out;
}

ClusterResult hybrid_dbscan(cudasim::Device& device,
                            std::span<const Point2> points, float eps,
                            int minpts, HybridTimings* timings,
                            const BatchPolicy& policy, ClusterMode mode) {
  ShardedBuildOptions options;
  options.policy = policy;
  return hybrid_dbscan(std::vector<cudasim::Device*>{&device}, points, eps,
                       minpts, timings, options, mode);
}

ClusterResult hybrid_dbscan(const std::vector<cudasim::Device*>& devices,
                            std::span<const Point2> points, float eps,
                            int minpts, HybridTimings* timings,
                            const ShardedBuildOptions& options,
                            ClusterMode mode) {
  if (devices.empty() || devices.front() == nullptr) {
    throw std::invalid_argument("hybrid_dbscan: no devices");
  }
  HybridTimings local;
  WallTimer total_timer;

  if (options.policy.quality == ClusterQuality::kCellGraph) {
    const ClusterResult out = run_cell_graph_mode(
        devices.front()->config(), points, eps, minpts, mode, local,
        total_timer);
    if (timings != nullptr) *timings = local;
    return out;
  }

  const int minpts_list[] = {minpts};
  EpsBuild build =
      build_for_eps(devices, points, eps, minpts_list, mode, options);
  local.index_seconds = build.index_seconds;
  local.gpu_table_seconds = build.build_seconds;
  local.modeled_gpu_table_seconds = build.host_fallback
                                        ? build.build_seconds
                                        : build.report.modeled_table_seconds;

  WallTimer phase_timer;
  ClusterResult indexed;
  double tail_seconds = 0.0;  // the serial clustering share after the build
  if (build.streamed()) {
    StreamingDbscan& consumer = build.consumer(0);
    indexed = consumer.finalize();
    local.dbscan_seconds = phase_timer.seconds();
    const StreamingDbscan::Stats& st = consumer.stats();
    local.fused = mode == ClusterMode::kFused;
    local.streamed = true;
    local.consume_seconds = st.consume_seconds;
    local.finalize_seconds = st.finalize_seconds;
    local.overlap_fraction = st.overlap_fraction();
    local.streamed_edge_fraction = st.streamed_fraction();
    local.peak_consumer_bytes = consumer.peak_memory_bytes();
    tail_seconds = st.finalize_seconds;
  } else {
    indexed = dbscan_neighbor_table(build.table, minpts);
    local.dbscan_seconds = phase_timer.seconds();
    tail_seconds = local.dbscan_seconds;
  }
  local.build_report = std::move(build.report);
  local.total_seconds = total_timer.seconds();
  local.modeled_total_seconds = build.modeled_seconds + tail_seconds;
  if (timings != nullptr) *timings = local;
  return unmap_labels(indexed, build.original_ids);
}

}  // namespace hdbscan
