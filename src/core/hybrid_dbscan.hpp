// HYBRID-DBSCAN (paper Algorithm 4): grid index construction, GPU neighbor
// table construction with batching, and host-side DBSCAN over T.
#pragma once

#include <exception>
#include <memory>
#include <span>
#include <vector>

#include "core/batch_planner.hpp"
#include "core/neighbor_table_builder.hpp"
#include "core/sharded_build.hpp"
#include "cudasim/device.hpp"
#include "dbscan/cluster_result.hpp"
#include "dbscan/dbscan.hpp"
#include "dbscan/streaming_dbscan.hpp"

namespace hdbscan {

/// Per-phase wall times of one HYBRID-DBSCAN run. `gpu_table_seconds` is
/// the "GPU time" of the paper's Figure 3: constructing T, part of which
/// (the append into B) occurs on the host.
struct HybridTimings {
  double index_seconds = 0.0;
  double gpu_table_seconds = 0.0;  ///< simulator wall time of the T build
  double dbscan_seconds = 0.0;
  double total_seconds = 0.0;      ///< simulator wall total
  /// Modeled T-construction time on the reference hardware (K20c) — the
  /// simulator executes kernels on the host CPU, so gpu_table_seconds is
  /// CPU time, not GPU time. See BuildReport::modeled_table_seconds.
  double modeled_gpu_table_seconds = 0.0;
  /// index build + modeled T construction + host DBSCAN: the response
  /// time a machine with the paper's GPU would see. In streaming mode the
  /// union work overlaps the build on the reference host, so this is
  /// index + max(modeled build, host union) + the resolution tail.
  double modeled_total_seconds = 0.0;
  BuildReport build_report;

  // --- streaming mode (ClusterMode::kStreaming / kFused) ---
  bool fused = false;  ///< the fused no-table traversal produced the labels
  bool streamed = false;
  double consume_seconds = 0.0;   ///< union work hidden under the build
  double finalize_seconds = 0.0;  ///< post-build resolution tail
  double overlap_fraction = 0.0;  ///< consume / (consume + finalize)
  double streamed_edge_fraction = 0.0;  ///< edges settled mid-build
  std::size_t peak_consumer_bytes = 0;  ///< replaces the table footprint
};

/// Everything one build of T for one eps produced: the stage every entry
/// point (hybrid_dbscan, run_multi_clustering, cluster_minpts_sweep, the
/// service) runs before it clusters. Either `table` holds T (batch mode,
/// and host fallback in any mode), or `consumers` hold the union-find
/// state the build streamed into (streaming and fused modes); the caller
/// finishes with dbscan over the table or each consumer's finalize().
struct EpsBuild {
  /// The grid index's id permutation: labels computed over `table` or by
  /// a consumer are in index order, and unmap_labels restores input order.
  std::vector<PointId> original_ids;
  NeighborTable table{0};
  /// Streaming: one consumer per entry of the requested minpts, null where
  /// that value was rejected (see consumer()). Fused: the single consumer
  /// every entry shares.
  std::vector<std::unique_ptr<StreamingDbscan>> consumers;
  std::vector<std::exception_ptr> rejected;  ///< why a consumer is null
  BuildReport report;
  double index_seconds = 0.0;  ///< wall time of the grid index build
  double build_seconds = 0.0;  ///< wall time of the T build
  /// No device was live: T was built on the host and charged wall time.
  bool host_fallback = false;
  /// The build's response time on the reference hardware: index build +
  /// max(modeled T construction, summed slowest union thread of every
  /// consumer) — the unions run on their own cores while the device
  /// builds. Host fallback charges index + build wall time.
  double modeled_seconds = 0.0;

  [[nodiscard]] bool streamed() const noexcept { return !consumers.empty(); }
  /// The consumer that clustered entry `i` of the requested minpts;
  /// rethrows the reason that value was rejected.
  [[nodiscard]] StreamingDbscan& consumer(std::size_t i) const;
};

/// Builds T for one eps — the first phase of every clustering path (paper
/// Fig. 4). Owns the four decisions every caller shares:
/// - Builder: a fleet of one device with options.num_shards <= 1 uses
///   NeighborTableBuilder; any other fleet the sharded orchestrator;
///   ClusterMode::kFused runs fused_cluster on the live devices and
///   rejects more than one distinct minpts.
/// - Empty fleet: with no live device (or none at all) T is built on the
///   host in any mode, and `host_fallback` is set.
/// - Modeled charge: EpsBuild::modeled_seconds, computed once here.
/// - Fan-out: one FanoutSink feeds every streaming consumer.
/// Streaming keeps building while at least one minpts is valid; when none
/// is, the first rejection is rethrown. Null devices are skipped.
EpsBuild build_for_eps(const std::vector<cudasim::Device*>& devices,
                       std::span<const Point2> points, float eps,
                       std::span<const int> minpts, ClusterMode mode,
                       const ShardedBuildOptions& options);

/// Runs HYBRID-DBSCAN for a single (eps, minpts). The returned labels are
/// in the order of `points` (the grid index's internal reordering is
/// unmapped before returning). ClusterMode::kStreaming clusters the CSR
/// batches as the GPU produces them and never materializes T.
/// ClusterMode::kFused goes further: the grid traversal kernel itself
/// counts degrees and unions both-core edges (core/fused_clustering), so
/// even the CSR passes and value transfers disappear. Forwards to the
/// fleet overload as a fleet of one; a device that is already lost yields
/// host-built labels.
ClusterResult hybrid_dbscan(cudasim::Device& device,
                            std::span<const Point2> points, float eps,
                            int minpts, HybridTimings* timings = nullptr,
                            const BatchPolicy& policy = {},
                            ClusterMode mode = ClusterMode::kBatchTable);

/// Multi-device HYBRID-DBSCAN: T is built sharded across `devices` (one
/// grid slab plus its eps-halo per shard; see core/sharded_build.hpp) and
/// the labels are bit-identical to the single-device run. In streaming
/// mode the cross-shard core-core unions flow through the same
/// StreamingDbscan consumer the single-device path uses, fed global keys
/// by the shard translation layer. One device with options.num_shards <= 1
/// takes the single-device builder (see build_for_eps).
ClusterResult hybrid_dbscan(const std::vector<cudasim::Device*>& devices,
                            std::span<const Point2> points, float eps,
                            int minpts, HybridTimings* timings = nullptr,
                            const ShardedBuildOptions& options = {},
                            ClusterMode mode = ClusterMode::kBatchTable);

/// Remaps labels from the grid index's point order back to input order.
ClusterResult unmap_labels(const ClusterResult& indexed,
                           std::span<const PointId> original_ids);

}  // namespace hdbscan
