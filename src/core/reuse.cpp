#include "core/reuse.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <stdexcept>

#include "common/timer.hpp"
#include "core/hybrid_dbscan.hpp"
#include "core/neighbor_table_builder.hpp"
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

  const bool streaming = mode == ClusterMode::kStreaming;

  // Phase 1: one neighbor table build for this eps. In streaming mode a
  // FanoutSink replicates each CSR batch to one union-find consumer per
  // minpts value — k clusterings ride a single build, and T itself is
  // never materialized (the reuse scheme's memory win compounds: one
  // build, zero tables).
  TRACE_SPAN("reuse", "minpts_sweep eps=%.3f k=%zu",
             static_cast<double>(eps), minpts_values.size());
  WallTimer table_timer;
  WallTimer index_timer;
  const GridIndex<Point2> index = build_grid_index(points, eps);
  const double index_s = index_timer.seconds();
  NeighborTableBuilder builder(device, policy);
  BuildReport build_report;

  std::vector<std::unique_ptr<StreamingDbscan>> consumers;
  NeighborTable table(0);
  if (streaming) {
    consumers.resize(minpts_values.size());
    FanoutSink fanout;
    for (std::size_t i = 0; i < minpts_values.size(); ++i) {
      try {
        consumers[i] =
            std::make_unique<StreamingDbscan>(index.size(), minpts_values[i]);
        fanout.add(consumers[i].get());
      } catch (const std::exception& e) {
        // An invalid minpts among valid ones is excluded from the fanout
        // and recorded; its siblings still stream.
        report.outcomes[i].ok = false;
        report.outcomes[i].error = e.what();
      }
    }
    builder.build(index, eps, &build_report,
                  fanout.empty() ? nullptr : &fanout,
                  /*materialize_table=*/fanout.empty());
    report.streamed = true;
  } else {
    table = builder.build(index, eps, &build_report);
  }
  report.table_seconds = table_timer.seconds();
  report.modeled_table_seconds =
      index_s + build_report.modeled_table_seconds;

  // Phase 2: every minpts value from one union-find sweep over the shared
  // table in batch mode, or each consumer's resolution tail in streaming
  // mode.
  WallTimer dbscan_timer;
  const unsigned threads = std::max(1u, num_threads);
  if (streaming) {
    std::exception_ptr first_error;
    std::size_t failed = 0;
    double overlap_sum = 0.0;
    for (std::size_t i = 0; i < minpts_values.size(); ++i) {
      VariantOutcome& outcome = report.outcomes[i];
      try {
        // Rejected before the fanout: count it like any failed value.
        if (!outcome.ok) throw std::invalid_argument(outcome.error);
        const ClusterResult indexed = consumers[i]->finalize(threads);
        overlap_sum += consumers[i]->stats().overlap_fraction();
        report.variant_clusters[i] = indexed.num_clusters;
        if (results != nullptr) {
          (*results)[i] = unmap_labels(indexed, index.original_ids);
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
    MinptsSweep sweep = dbscan_minpts_sweep(table, minpts_values, threads,
                                            index.original_ids);
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
