#include "core/reuse.hpp"

#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/timer.hpp"
#include "core/hybrid_dbscan.hpp"
#include "core/neighbor_table_builder.hpp"
#include "dbscan/dbscan.hpp"
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
  report.variant_seconds.assign(minpts_values.size(), 0.0);
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

  // Phase 2: concurrent minpts sweep — over the shared (read-only) table
  // in batch mode, or each consumer's resolution tail in streaming mode.
  WallTimer dbscan_timer;
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::size_t failed = 0;  // guarded by error_mutex
  for (const VariantOutcome& o : report.outcomes) {
    if (!o.ok) {
      ++failed;  // minpts rejected before the fanout
      if (!first_error) {
        first_error =
            std::make_exception_ptr(std::invalid_argument(o.error));
      }
    }
  }

  // One failing minpts value (say, an invalid 0 in the middle of a sweep)
  // is recorded in its outcome slot and the worker moves on; the shared
  // table is read-only so the siblings are unaffected.
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= minpts_values.size()) return;
      if (!report.outcomes[i].ok) continue;  // rejected pre-fanout
      try {
        WallTimer t;
        ClusterResult indexed =
            streaming ? consumers[i]->finalize()
                      : dbscan_neighbor_table(table, minpts_values[i]);
        report.variant_seconds[i] = t.seconds();
        report.variant_clusters[i] = indexed.num_clusters;
        if (results != nullptr) {
          (*results)[i] = unmap_labels(indexed, index.original_ids);
        }
      } catch (const std::exception& e) {
        std::lock_guard lock(error_mutex);
        report.outcomes[i].ok = false;
        report.outcomes[i].error = e.what();
        ++failed;
        if (!first_error) first_error = std::current_exception();
      } catch (...) {
        std::lock_guard lock(error_mutex);
        report.outcomes[i].ok = false;
        report.outcomes[i].error = "unknown error";
        ++failed;
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  if (num_threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (unsigned t = 0; t < num_threads; ++t) threads.emplace_back(worker);
    for (auto& t : threads) t.join();
  }
  if (!minpts_values.empty() && failed == minpts_values.size()) {
    std::rethrow_exception(first_error);
  }

  if (streaming) {
    double sum = 0.0;
    std::size_t counted = 0;
    for (const auto& c : consumers) {
      if (c) {
        sum += c->stats().overlap_fraction();
        ++counted;
      }
    }
    if (counted > 0) report.overlap_fraction = sum / counted;
  }

  report.dbscan_wall_seconds = dbscan_timer.seconds();
  report.total_seconds = total_timer.seconds();
  return report;
}

}  // namespace hdbscan
