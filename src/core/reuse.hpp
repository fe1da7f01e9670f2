// Data-reuse scheme (paper §VII-F / scenario S3).
//
// The neighbor table depends only on eps, so for a fixed eps and a sweep
// over minpts, T is computed once and every minpts value is clustered
// from it. The paper runs one DBSCAN per minpts on k host threads; here
// one union-find sweep over T (dbscan/minpts_sweep.hpp) yields all of
// them at once, since core sets are nested in minpts. (This is the
// opposite knob to OPTICS, which fixes minpts and sweeps eps.)
#pragma once

#include <span>
#include <vector>

#include "core/batch_planner.hpp"
#include "core/pipeline.hpp"
#include "cudasim/device.hpp"
#include "dbscan/cluster_result.hpp"

namespace hdbscan {

struct ReuseReport {
  float eps = 0.0f;
  double table_seconds = 0.0;   ///< index build + T construction (once)
  /// Index build + modeled T construction (reference-hardware GPU model).
  double modeled_table_seconds = 0.0;
  double dbscan_wall_seconds = 0.0;  ///< clustering phase (all minpts)
  double total_seconds = 0.0;
  /// Streaming mode: all minpts consumers ingested the build's batches
  /// concurrently; phase 2 only ran their resolution tails.
  bool streamed = false;
  /// Mean per-consumer consume / (consume + finalize) in streaming mode.
  double overlap_fraction = 0.0;
  std::vector<std::int32_t> variant_clusters;
  /// Per-minpts outcome: a failing variant (e.g. an invalid minpts among
  /// valid ones) is recorded here and no longer aborts its siblings; the
  /// first error is rethrown only when every variant failed.
  std::vector<VariantOutcome> outcomes;
};

/// Builds T once for `eps`, then clusters every minpts value with one
/// dbscan_minpts_sweep over T on `num_threads` workers. Labels (input
/// order) are written to `results` when non-null. ClusterMode::kStreaming
/// instead fans every CSR batch out to one union-find consumer per minpts
/// value during the single build (T itself is never materialized); phase
/// 2 then only runs each consumer's resolution tail.
ReuseReport cluster_minpts_sweep(cudasim::Device& device,
                                 std::span<const Point2> points, float eps,
                                 std::span<const int> minpts_values,
                                 unsigned num_threads,
                                 const BatchPolicy& policy = {},
                                 std::vector<ClusterResult>* results = nullptr,
                                 ClusterMode mode = ClusterMode::kBatchTable);

}  // namespace hdbscan
