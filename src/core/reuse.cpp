#include "core/reuse.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>

#include "common/timer.hpp"
#include "core/hybrid_dbscan.hpp"
#include "dbscan/minpts_sweep.hpp"
#include "obs/trace.hpp"

namespace hdbscan {

ReuseReport cluster_minpts_sweep(cudasim::Device& device,
                                 std::span<const Point2> points, float eps,
                                 std::span<const int> minpts_values,
                                 unsigned num_threads,
                                 const BatchPolicy& policy,
                                 std::vector<ClusterResult>* results,
                                 ClusterMode mode) {
  ReuseReport report;
  report.eps = eps;
  report.variant_clusters.assign(minpts_values.size(), 0);
  report.outcomes.assign(minpts_values.size(), {});
  if (results != nullptr) results->assign(minpts_values.size(), {});

  WallTimer total_timer;

  // Phase 1: one neighbor table build for this eps. In streaming mode the
  // stage fans each CSR batch out to one union-find consumer per minpts
  // value — k clusterings ride a single build, and T itself is never
  // materialized (the reuse scheme's memory win compounds: one build,
  // zero tables). Any other mode builds the table.
  TRACE_SPAN("reuse", "minpts_sweep eps=%.3f k=%zu",
             static_cast<double>(eps), minpts_values.size());
  ShardedBuildOptions options;
  options.policy = policy;
  const EpsBuild build = build_for_eps(
      {&device}, points, eps, minpts_values,
      mode == ClusterMode::kStreaming ? mode : ClusterMode::kBatchTable,
      options);
  report.table_seconds = build.index_seconds + build.build_seconds;
  report.modeled_table_seconds = build.modeled_seconds;
  report.streamed = build.streamed();

  // Phase 2: every minpts value from one union-find sweep over the shared
  // table, or each consumer's resolution tail when the build streamed.
  WallTimer dbscan_timer;
  const unsigned threads = std::max(1u, num_threads);
  if (build.streamed()) {
    std::exception_ptr first_error;
    std::size_t failed = 0;
    double overlap_sum = 0.0;
    for (std::size_t i = 0; i < minpts_values.size(); ++i) {
      VariantOutcome& outcome = report.outcomes[i];
      try {
        StreamingDbscan& consumer = build.consumer(i);
        const ClusterResult indexed = consumer.finalize(threads);
        overlap_sum += consumer.stats().overlap_fraction();
        report.variant_clusters[i] = indexed.num_clusters;
        if (results != nullptr) {
          (*results)[i] = unmap_labels(indexed, build.original_ids);
        }
      } catch (const std::exception& e) {
        // A failing value is recorded and its siblings still finish.
        outcome.ok = false;
        outcome.error = e.what();
        ++failed;
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (!minpts_values.empty() && failed == minpts_values.size()) {
      std::rethrow_exception(first_error);
    }
    const std::size_t finished = minpts_values.size() - failed;
    if (finished > 0) report.overlap_fraction = overlap_sum / finished;
  } else {
    // Throws when every value is invalid; an invalid value among valid
    // ones is recorded and its siblings are kept.
    MinptsSweep sweep = dbscan_minpts_sweep(build.table, minpts_values,
                                            threads, build.original_ids);
    for (std::size_t i = 0; i < minpts_values.size(); ++i) {
      report.outcomes[i].ok = sweep.outcomes[i].ok;
      report.outcomes[i].error = std::move(sweep.outcomes[i].error);
      report.variant_clusters[i] = sweep.results[i].num_clusters;
    }
    if (results != nullptr) *results = std::move(sweep.results);
  }

  report.dbscan_wall_seconds = dbscan_timer.seconds();
  report.total_seconds = total_timer.seconds();
  return report;
}

}  // namespace hdbscan
