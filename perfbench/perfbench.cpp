// Repository benchmark driver. One process runs one workload for a fixed
// wall budget and prints one JSON result line (README.md here lists the
// workloads, metrics and the layer map):
//
//   perfbench --workload <eps_sweep|minpts_reuse|serve_zipf|sparse_single>
//             --seed <n> --seconds <s> --trace <0|1> [--state-dir <dir>]
//
// BENCHMARK.json lists the first three; sparse_single stays runnable by
// hand (README.md says why it is not in the measured set).
//
// Every workload is a closed loop: this single thread issues the next
// top-level call when the previous one returns. Inputs come from --seed
// only. --trace 0 measures the end-to-end metrics. --trace 1 alternates
// each call with a replay of the same work through the layers' public
// functions, wrapped in the benchmark's own spans, and reports the
// per-layer metrics.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/hybrid_dbscan.hpp"
#include "core/neighbor_table_builder.hpp"
#include "core/pipeline.hpp"
#include "core/reuse.hpp"
#include "cudasim/device.hpp"
#include "data/datasets.hpp"
#include "data/generators.hpp"
#include "dbscan/cluster_compare.hpp"
#include "dbscan/dbscan.hpp"
#include "index/grid_index.hpp"
#include "index/rtree.hpp"
#include "obs/registry.hpp"
#include "service/scheduler.hpp"
#include "service/workload.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using hdbscan::Point2;
using Clock = std::chrono::steady_clock;
using Counters = std::map<std::string, double>;

/// Set-up runs this many times per run; setup_s is their median.
constexpr std::size_t kSetupRepeats = 3;
/// Traced calls whose exact counters are fingerprinted for determinism.
constexpr std::size_t kFingerprintCalls = 3;
/// Stated bound on the share of a traced call's wall time that no layer
/// span covers (benchmark glue: thread start, queue hand-offs).
constexpr double kTraceGapBound = 0.05;
/// Threads that draw candidate inputs during set-up and compute the
/// reference clusterings after the timed phase (the host has 4 cores).
constexpr unsigned kSetupThreads = 4;
/// Host threads of each device's builder merge and expand passes.
constexpr int kHostCores = 4;

/// Counters that must repeat exactly for the same seed (choosing-metrics
/// §8); any that does not is reported as measured, not counted.
const std::vector<std::string>& exact_counters() {
  static const std::vector<std::string> names = {
      "builder.pairs",          "gpu.kernel_flops",
      "gpu.kernel_global_bytes", "cudasim.d2h_bytes",
      "cudasim.kernel_launches", "cudasim.kernel_modeled_s",
      "service.cache_hits",     "service.cache_misses",
      "service.cache_evictions", "service.coalesced_jobs"};
  return names;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  hdbscan::SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ull * (stream + 1)));
  return sm.next();
}

/// Calls fn(i) for every i in [0, count) on `threads` threads, joins them
/// and rethrows the first exception any call raised.
template <typename F>
void parallel_for(std::size_t count, unsigned threads, F&& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::exception_ptr error;  // guarded by mutex
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < threads; ++w) {
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < count; i = next++) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard lock(mutex);
          if (!error) error = std::current_exception();
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  if (error) std::rethrow_exception(error);
}

// --------------------------------------------------------------- spans --

struct Span {
  std::string name;
  int parent = -1;  ///< causing span; -1 for a call's root
  int call = 0;     ///< shared by every span of one traced call
  double begin = 0.0;
  double end = 0.0;
};

/// In-memory span store, written out when the run ends. Thread-safe:
/// the pipeline replay records from its consumer threads.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  [[nodiscard]] double now() const { return seconds_since(epoch_); }

  int open(std::string name, int parent, int call) {
    const double t = now();
    std::lock_guard lock(mutex_);
    spans_.push_back({std::move(name), parent, call, t, t});
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int id) {
    const double t = now();
    std::lock_guard lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }

  void add(std::string name, int parent, int call, double begin,
           double end) {
    std::lock_guard lock(mutex_);
    spans_.push_back({std::move(name), parent, call, begin, end});
  }

  [[nodiscard]] std::vector<Span> snapshot() const {
    std::lock_guard lock(mutex_);
    return spans_;
  }

 private:
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

/// Where a traced call records its spans.
struct TraceCtx {
  SpanLog& log;
  int root = -1;
  int call = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(const TraceCtx& t, std::string name)
      : log_(t.log), id_(t.log.open(std::move(name), t.root, t.call)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

template <typename F>
auto in_span(const TraceCtx& t, const char* name, F&& fn) {
  ScopedSpan span(t, name);
  return fn();
}

// ------------------------------------------------------------- results --

/// One clustering a call produced, checked against the reference later.
struct Check {
  float eps = 0.0f;
  int minpts = 0;
  std::int32_t clusters = 0;
  std::size_t noise = 0;
  bool ok = true;  ///< the entry point reported success
};

struct CallResult {
  std::vector<Check> checks;
  /// Figures read from the entry point's own report (PipelineReport,
  /// ReuseReport); only the traced run reports them.
  Counters report;
  /// Input-order labels, for entry points that return them.
  std::vector<std::int32_t> labels;
};

void add_device_metrics(Counters& c, const cudasim::DeviceMetrics& m) {
  c["cudasim.kernel_wall_s"] += m.kernel_wall_seconds;
  c["cudasim.kernel_modeled_s"] += m.kernel_modeled_seconds;
  c["cudasim.kernel_launches"] += static_cast<double>(m.kernel_launches);
  c["cudasim.h2d_bytes"] += static_cast<double>(m.h2d_bytes);
  c["cudasim.d2h_bytes"] += static_cast<double>(m.d2h_bytes);
  c["cudasim.transfer_s"] += m.transfer_seconds;
  c["cudasim.pinned_alloc_s"] += m.pinned_alloc_seconds;
  c["cudasim.pool_hits"] +=
      static_cast<double>(m.pool_device_hits + m.pool_pinned_hits);
  c["cudasim.pool_misses"] +=
      static_cast<double>(m.pool_device_misses + m.pool_pinned_misses);
  c["cudasim.peak_device_bytes"] = std::max(
      c["cudasim.peak_device_bytes"], static_cast<double>(m.peak_mem_bytes));
}

void add_build_report(Counters& c, const hdbscan::BuildReport& r) {
  c["builder.estimate_s"] += r.estimate_seconds;
  c["builder.expand_s"] += r.expand_seconds;
  c["builder.batches"] += r.batches_run;
  c["builder.overflow_splits"] += r.overflow_splits;
  c["builder.pairs"] += static_cast<double>(r.total_pairs);
  c["gpu.kernel_flops"] += static_cast<double>(r.kernel_flops);
  c["gpu.kernel_global_bytes"] += static_cast<double>(r.kernel_global_bytes);
  c["gpu.atomic_ops"] += static_cast<double>(r.atomic_ops);
}

// ---------------------------------------------------------- workloads --

/// Ordered pairs (self pairs included) of `points` within `eps`, counted
/// over a plain cell grid of side eps on [0, domain)^2.
std::uint64_t count_pairs(const std::vector<Point2>& points, float domain,
                          float eps) {
  const auto side = static_cast<std::size_t>(domain / eps) + 1;
  const auto cell_of = [&](const Point2& p) {
    const auto bin = [&](float v) {
      return std::min(side - 1,
                      static_cast<std::size_t>(std::max(0.0f, v) / eps));
    };
    return bin(p.y) * side + bin(p.x);
  };
  std::vector<std::uint32_t> start(side * side + 1, 0);
  for (const Point2& p : points) ++start[cell_of(p) + 1];
  for (std::size_t c = 1; c < start.size(); ++c) start[c] += start[c - 1];
  std::vector<Point2> binned(points.size());
  std::vector<std::uint32_t> cursor(start.begin(), start.end() - 1);
  for (const Point2& p : points) binned[cursor[cell_of(p)]++] = p;
  const float eps2 = eps * eps;
  std::uint64_t pairs = 0;
  for (std::size_t cy = 0; cy < side; ++cy) {
    for (std::size_t cx = 0; cx < side; ++cx) {
      const std::size_t c = cy * side + cx;
      const std::size_t y_end = std::min(side - 1, cy + 1);
      const std::size_t x_end = std::min(side - 1, cx + 1);
      for (std::size_t ny = cy == 0 ? 0 : cy - 1; ny <= y_end; ++ny) {
        for (std::size_t nx = cx == 0 ? 0 : cx - 1; nx <= x_end; ++nx) {
          const std::size_t d = ny * side + nx;
          for (std::uint32_t i = start[c]; i < start[c + 1]; ++i) {
            for (std::uint32_t j = start[d]; j < start[d + 1]; ++j) {
              const float dx = binned[i].x - binned[j].x;
              const float dy = binned[i].y - binned[j].y;
              pairs += dx * dx + dy * dy <= eps2 ? 1 : 0;
            }
          }
        }
      }
    }
  }
  return pairs;
}

/// Generates `n` points of a dataset family on the square domain the
/// dataset registry gives that family. The skewed generator's work varies
/// up to 3x between seeds (a hot region clamped onto the domain edge), so
/// the run's seed draws kCandidates datasets and the one whose pair count
/// at `probe_eps` is closest to `target_pairs` is kept: the work per call
/// is pinned the way n pins the input size, while every point still comes
/// from the seed.
std::vector<Point2> make_points(const char* dataset, std::size_t n,
                                std::uint64_t seed, float probe_eps,
                                double target_pairs) {
  constexpr std::size_t kCandidates = 16;
  const hdbscan::data::DatasetInfo& info =
      hdbscan::data::dataset_info(dataset);
  const auto generate = [&](std::uint64_t s) {
    if (info.skewed) {
      hdbscan::data::SpaceWeatherParams p;
      p.width = p.height = info.domain;
      return hdbscan::data::generate_space_weather(n, s, p);
    }
    hdbscan::data::SkySurveyParams p;
    p.width = p.height = info.domain;
    return hdbscan::data::generate_sky_survey(n, s, p);
  };
  std::vector<std::vector<Point2>> candidates(kCandidates);
  std::vector<double> distance(kCandidates);
  parallel_for(kCandidates, kSetupThreads, [&](std::size_t k) {
    candidates[k] = generate(mix_seed(seed, k));
    distance[k] = std::abs(
        static_cast<double>(count_pairs(candidates[k], info.domain,
                                        probe_eps)) -
        target_pairs);
  });
  const auto best = std::min_element(distance.begin(), distance.end());
  return std::move(candidates[static_cast<std::size_t>(
      std::distance(distance.begin(), best))]);
}

/// A device in realistic mode (PCIe transfers and page-locking are slept
/// to their modeled time) with a pinned kernel-executor thread count. The
/// builder splits its shard merge and half-table expand over the device's
/// host_cores threads (12 by default, the paper's host); they are pinned
/// to kHostCores so those passes do not oversubscribe the 4 cores.
std::unique_ptr<cudasim::Device> make_device(std::size_t executor_threads) {
  cudasim::DeviceConfig config;
  config.host_cores = kHostCores;
  cudasim::SimulationOptions sim;
  sim.throttle_transfers = true;
  sim.throttle_pinned_alloc = true;
  sim.executor_threads = executor_threads;
  return std::make_unique<cudasim::Device>(config, sim);
}

/// Median pair count at eps 1.0 of SW1-family data (n = 29,135) over 64
/// generator seeds; eps_sweep and serve_zipf draw inputs near it (their
/// cost is dominated by the larger eps values).
constexpr double kSw1Pairs = 9.32e6;

class Workload {
 public:
  virtual ~Workload() = default;
  /// One top-level call through the public entry point.
  virtual CallResult call() = 0;
  /// The same work as explicit layer calls inside spans; per-call layer
  /// counters go to `layer`.
  virtual CallResult traced_call(const TraceCtx& t, Counters& layer) = 0;
  [[nodiscard]] virtual const std::vector<Point2>& points() const = 0;
  /// True when every call does identical work, so every call's exact
  /// counters must be equal.
  [[nodiscard]] virtual bool repeats_work() const { return true; }
};

/// Bounded single-producer queue for the traced pipeline replay.
template <typename T>
class HandoffQueue {
 public:
  explicit HandoffQueue(std::size_t capacity) : capacity_(capacity) {}

  void push(T item) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock, [&] { return items_.size() < capacity_; });
    items_.push_back(std::move(item));
    not_empty_.notify_one();
  }

  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  void close() {
    std::lock_guard lock(mutex_);
    closed_ = true;
    not_empty_.notify_all();
  }

 private:
  std::size_t capacity_;
  std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;  ///< guarded by mutex_
  bool closed_ = false;  ///< guarded by mutex_
};

/// Paper S2 / Fig. 4: one pipelined 15-variant eps sweep per call.
class EpsSweep final : public Workload {
 public:
  static constexpr unsigned kConsumers = 3;
  static constexpr std::size_t kExecutorThreads = 3;

  explicit EpsSweep(std::uint64_t seed)
      : points_(make_points("SW1", 29'135, mix_seed(seed, 1), 1.0f,
                            kSw1Pairs)),
        device_(make_device(kExecutorThreads)) {
    for (int i = 1; i <= 15; ++i) {
      variants_.push_back({static_cast<float>(i) / 10.0f, 4});
    }
    options_.pipelined = true;
    options_.num_consumers = kConsumers;
    options_.queue_capacity = 3;
    call();  // warm-up: fills the device buffer pools
  }

  CallResult call() override {
    const hdbscan::PipelineReport rep =
        hdbscan::run_multi_clustering(*device_, points_, variants_, options_);
    CallResult out;
    for (const hdbscan::VariantTiming& v : rep.variants) {
      out.checks.push_back({v.variant.eps, v.variant.minpts, v.num_clusters,
                            v.noise_count, v.outcome.ok});
      out.report["pipeline.table_s"] += v.table_seconds;
      out.report["pipeline.dbscan_s"] += v.dbscan_seconds;
    }
    out.report["pipeline.wall_s"] = rep.total_seconds;
    return out;
  }

  CallResult traced_call(const TraceCtx& t, Counters& layer) override {
    struct Item {
      std::size_t variant = 0;
      hdbscan::NeighborTable table;
      std::vector<hdbscan::PointId> original_ids;
    };
    device_->reset_metrics();
    CallResult out;
    out.checks.resize(variants_.size());
    HandoffQueue<Item> queue(options_.queue_capacity);
    std::mutex error_mutex;
    std::exception_ptr error;  // guarded by error_mutex
    const auto keep_first_error = [&] {
      std::lock_guard lock(error_mutex);
      if (!error) error = std::current_exception();
    };
    // A consumer that fails keeps draining, so the producer never blocks
    // on a full queue.
    std::vector<std::thread> consumers;
    for (unsigned c = 0; c < kConsumers; ++c) {
      consumers.emplace_back([&] {
        while (std::optional<Item> item = queue.pop()) {
          try {
            const hdbscan::Variant& v = variants_[item->variant];
            const hdbscan::ClusterResult r = in_span(t, "dbscan", [&] {
              return hdbscan::dbscan_neighbor_table(item->table, v.minpts);
            });
            out.checks[item->variant] = {v.eps, v.minpts, r.num_clusters,
                                         r.noise_count(), true};
          } catch (...) {
            keep_first_error();
          }
        }
      });
    }
    try {
      hdbscan::NeighborTableBuilder builder(*device_, options_.policy);
      for (std::size_t i = 0; i < variants_.size(); ++i) {
        const float eps = variants_[i].eps;
        hdbscan::GridIndex index = in_span(t, "index", [&] {
          return hdbscan::build_grid_index(points_, eps);
        });
        hdbscan::BuildReport rep;
        hdbscan::NeighborTable table = in_span(
            t, "builder", [&] { return builder.build(index, eps, &rep); });
        add_build_report(layer, rep);
        queue.push({i, std::move(table), std::move(index.original_ids)});
      }
    } catch (...) {
      keep_first_error();
    }
    queue.close();
    for (std::thread& c : consumers) c.join();
    if (error) std::rethrow_exception(error);
    add_device_metrics(layer, device_->metrics());
    return out;
  }

  [[nodiscard]] const std::vector<Point2>& points() const override {
    return points_;
  }

 private:
  std::vector<Point2> points_;
  std::unique_ptr<cudasim::Device> device_;
  std::vector<hdbscan::Variant> variants_;
  hdbscan::PipelineOptions options_;
};

/// Paper S3 / Figs. 5-6: one table at eps 0.3 reused by 16 minpts values.
class MinptsReuse final : public Workload {
 public:
  static constexpr unsigned kThreads = 4;
  static constexpr std::size_t kExecutorThreads = 4;
  static constexpr float kEps = 0.3f;
  /// Median pair count at kEps of SW4-family data over 64 seeds.
  static constexpr double kTargetPairs = 8.4e6;

  explicit MinptsReuse(std::uint64_t seed)
      : points_(make_points("SW4", 80'621, mix_seed(seed, 2), kEps,
                            kTargetPairs)),
        device_(make_device(kExecutorThreads)),
        // The paper's 16 SW minpts values (bench/scenarios.hpp, S3).
        minpts_{10,  20,  30,  40,  50,   60,   70,   80,
                90,  100, 200, 400, 800,  1000, 2000, 3000} {
    call();
  }

  CallResult call() override {
    std::vector<hdbscan::ClusterResult> results(minpts_.size());
    const hdbscan::ReuseReport rep = hdbscan::cluster_minpts_sweep(
        *device_, points_, kEps, minpts_, kThreads, {}, &results);
    CallResult out;
    for (std::size_t i = 0; i < minpts_.size(); ++i) {
      out.checks.push_back({kEps, minpts_[i], rep.variant_clusters[i],
                            results[i].noise_count(), rep.outcomes[i].ok});
    }
    out.report["reuse.table_s"] = rep.table_seconds;
    out.report["reuse.cluster_wall_s"] = rep.dbscan_wall_seconds;
    return out;
  }

  CallResult traced_call(const TraceCtx& t, Counters& layer) override {
    device_->reset_metrics();
    const hdbscan::GridIndex index = in_span(
        t, "index", [&] { return hdbscan::build_grid_index(points_, kEps); });
    hdbscan::BuildReport rep;
    const hdbscan::NeighborTable table = in_span(t, "builder", [&] {
      return hdbscan::NeighborTableBuilder(*device_).build(index, kEps, &rep);
    });
    add_build_report(layer, rep);
    add_device_metrics(layer, device_->metrics());

    CallResult out;
    out.checks.resize(minpts_.size());
    parallel_for(minpts_.size(), kThreads, [&](std::size_t i) {
      const hdbscan::ClusterResult r = in_span(t, "dbscan", [&] {
        return hdbscan::dbscan_neighbor_table(table, minpts_[i]);
      });
      out.checks[i] = {kEps, minpts_[i], r.num_clusters, r.noise_count(),
                       true};
    });
    return out;
  }

  [[nodiscard]] const std::vector<Point2>& points() const override {
    return points_;
  }

 private:
  std::vector<Point2> points_;
  std::unique_ptr<cudasim::Device> device_;
  std::vector<int> minpts_;
};

/// The service: waves of 16 Zipf-over-eps jobs against one registered
/// dataset, with an eps menu wider than the table cache holds.
class ServeZipf final : public Workload {
 public:
  static constexpr unsigned kDevices = 2;
  static constexpr std::size_t kExecutorThreads = 2;  // per device
  static constexpr unsigned kWorkers = 2;
  static constexpr unsigned kDbscanThreads = 1;
  static constexpr unsigned kJobsPerWave = 16;
  static constexpr double kZipfS = 2.0;
  static constexpr double kCacheShare = 0.9;
  /// Hot values first; the cache holds kCacheShare of their tables.
  static constexpr std::array<float, 8> kEpsMenu = {0.5f, 0.3f, 0.7f, 0.4f,
                                                    0.9f, 0.6f, 1.1f, 0.8f};

  explicit ServeZipf(std::uint64_t seed)
      : seed_(seed),
        position_(hdbscan::Xoshiro256(mix_seed(seed, 5)).uniform()),
        points_(make_points("SW1", 29'135, mix_seed(seed, 3), 1.0f,
                            kSw1Pairs)) {
    for (unsigned d = 0; d < kDevices; ++d) {
      devices_.push_back(make_device(kExecutorThreads));
    }
    std::vector<cudasim::Device*> raw;
    for (auto& d : devices_) raw.push_back(d.get());
    hdbscan::service::ServiceOptions opts;
    opts.num_workers = kWorkers;
    opts.dbscan_threads = kDbscanThreads;
    opts.cache_bytes_budget = cache_budget();
    opts.coalesce = true;
    service_ = std::make_unique<hdbscan::service::ClusterService>(
        std::move(raw), opts);
    service_->register_dataset("sw1", points_, 0.5f);
    // Warm-up: one job per menu value, coldest first, so the pools fill
    // and the cache starts each timed phase holding the hottest tables.
    std::vector<hdbscan::service::JobSpec> warm;
    for (auto it = kEpsMenu.rbegin(); it != kEpsMenu.rend(); ++it) {
      hdbscan::service::JobSpec job;
      job.dataset = "sw1";
      job.eps = *it;
      warm.push_back(job);
    }
    service_->replay(warm);
  }

  CallResult call() override {
    const std::vector<hdbscan::service::JobSpec> jobs = next_wave();
    const std::vector<hdbscan::service::JobResult> results =
        service_->replay(jobs);
    return checks_of(jobs, results);
  }

  CallResult traced_call(const TraceCtx& t, Counters& layer) override {
    using hdbscan::service::Stage;
    for (auto& d : devices_) d->reset_metrics();
    const hdbscan::service::ServiceStats s0 = service_->stats();
    const Counters r0 = registry_counters();
    const std::vector<hdbscan::service::JobSpec> jobs = next_wave();
    const double wave_begin = t.log.now();
    const std::vector<hdbscan::service::JobResult> results =
        service_->replay(jobs);
    layer["service.replay_s"] += t.log.now() - wave_begin;
    const hdbscan::service::ServiceStats s1 = service_->stats();
    const Counters r1 = registry_counters();

    // Child spans from each job's stage ledger, laid end to end from the
    // wave's start in serving order; the ledger's stages sum to the job's
    // submit-to-terminal latency.
    static constexpr std::pair<Stage, const char*> kOrder[] = {
        {Stage::kAdmission, "service.admission"},
        {Stage::kQueueWait, "service.queue_wait"},
        {Stage::kBuild, "service.build"},
        {Stage::kCache, "service.cache"},
        {Stage::kStreamUnion, "service.stream_union"},
        {Stage::kFinalize, "service.finalize"}};
    for (const hdbscan::service::JobResult& r : results) {
      double at = wave_begin;
      for (const auto& [stage, name] : kOrder) {
        const double w = r.stages.wall(stage);
        if (w <= 0.0) continue;
        t.log.add(name, t.root, t.call, at, at + w);
        at += w;
      }
      // A coalesced member waited on its leader's build: count the build
      // once, under the job that ran it.
      if (r.linked_request_id == 0) {
        layer["builder.build_s"] += r.stages.wall(Stage::kBuild);
      }
      layer["dbscan.cluster_s"] += r.stages.wall(Stage::kCache);
      if (r.state == hdbscan::service::JobState::kCompleted) {
        layer["dbscan.calls"] += 1;
      }
    }
    const auto delta = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(b - a);
    };
    layer["service.jobs"] += static_cast<double>(jobs.size());
    layer["service.cache_hits"] += delta(s0.cache_hits, s1.cache_hits);
    layer["service.cache_misses"] += delta(s0.cache_misses, s1.cache_misses);
    layer["service.cache_evictions"] +=
        delta(s0.cache_evictions, s1.cache_evictions);
    layer["service.coalesced_jobs"] +=
        delta(s0.coalesced_jobs, s1.coalesced_jobs);
    layer["service.not_completed"] +=
        static_cast<double>(jobs.size()) - delta(s0.completed, s1.completed);
    for (const auto& [name, v] : r1) layer[name] += v - r0.at(name);
    for (auto& d : devices_) add_device_metrics(layer, d->metrics());
    return checks_of(jobs, results);
  }

  [[nodiscard]] const std::vector<Point2>& points() const override {
    return points_;
  }
  [[nodiscard]] bool repeats_work() const override { return false; }

 private:
  /// The cache budget: kCacheShare of the bytes the menu's tables take on
  /// this run's data (TableCache charges pairs * 4 + n * 8 per table), so
  /// the share of cold values that miss does not depend on the seed.
  [[nodiscard]] std::uint64_t cache_budget() const {
    const float domain = hdbscan::data::dataset_info("SW1").domain;
    double bytes = 0.0;
    for (const float eps : kEpsMenu) {
      bytes += static_cast<double>(count_pairs(points_, domain, eps)) *
                   sizeof(hdbscan::PointId) +
               static_cast<double>(points_.size()) * 2 * sizeof(std::uint32_t);
    }
    return static_cast<std::uint64_t>(kCacheShare * bytes);
  }

  /// The next wave: tenants, priorities and minpts from the service's
  /// Zipf workload generator; the eps values from the same Zipf law read
  /// through a golden-ratio sequence that runs across waves from a seeded
  /// start. Every value then recurs at even spacing with its Zipf
  /// frequency, so the cache misses at a steady rate instead of in
  /// seed-dependent bursts.
  std::vector<hdbscan::service::JobSpec> next_wave() {
    hdbscan::service::WorkloadSpec spec;
    spec.num_jobs = kJobsPerWave;
    spec.num_tenants = 4;
    spec.dataset = "sw1";
    spec.eps_choices.assign(kEpsMenu.begin(), kEpsMenu.end());
    spec.zipf_s = kZipfS;
    spec.minpts_choices = {4, 8};
    spec.seed = mix_seed(seed_, 1000 + wave_++);
    std::vector<hdbscan::service::JobSpec> jobs =
        hdbscan::service::make_zipf_workload(spec);

    std::array<double, kEpsMenu.size()> cdf{};
    double total = 0.0;
    for (std::size_t r = 0; r < kEpsMenu.size(); ++r) {
      total += std::pow(static_cast<double>(r + 1), -kZipfS);
      cdf[r] = total;
    }
    constexpr double kGoldenFraction = 0.6180339887498949;
    for (hdbscan::service::JobSpec& job : jobs) {
      position_ += kGoldenFraction;
      position_ -= std::floor(position_);
      const auto rank = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), position_ * total) -
          cdf.begin());
      job.eps = kEpsMenu[std::min(rank, kEpsMenu.size() - 1)];
    }
    return jobs;
  }

  static CallResult checks_of(
      const std::vector<hdbscan::service::JobSpec>& jobs,
      const std::vector<hdbscan::service::JobResult>& results) {
    CallResult out;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      out.checks.push_back(
          {jobs[i].eps, jobs[i].minpts, results[i].num_clusters,
           results[i].noise_count,
           results[i].state == hdbscan::service::JobState::kCompleted});
    }
    return out;
  }

  /// Build counters the table builder publishes to the obs registry: the
  /// service's BuildReports are not returned to callers.
  static Counters registry_counters() {
    // The service tags its builds' published counters with this label.
    static constexpr const char* kLabels = "service=1";
    hdbscan::obs::Registry& reg = hdbscan::obs::Registry::global();
    Counters c;
    const auto count = [&](const char* name) {
      return static_cast<double>(reg.counter(name, kLabels).value());
    };
    c["builder.batches"] = count("build_batches_run");
    c["builder.overflow_splits"] = count("build_overflow_splits");
    c["builder.pairs"] = count("build_total_pairs");
    c["gpu.kernel_flops"] = count("build_kernel_flops");
    c["gpu.kernel_global_bytes"] = count("build_kernel_global_bytes");
    c["gpu.atomic_ops"] = count("build_atomic_ops");
    c["builder.expand_s"] =
        reg.histogram("build_expand_seconds", kLabels).snapshot().sum;
    return c;
  }

  std::uint64_t seed_;
  std::uint64_t wave_ = 0;
  /// Position in [0, 1) of the golden-ratio sequence that picks eps values.
  double position_ = 0.0;
  std::vector<Point2> points_;
  std::vector<std::unique_ptr<cudasim::Device>> devices_;
  std::unique_ptr<hdbscan::service::ClusterService> service_;
};

/// Paper Table I row: one exact hybrid_dbscan call on near-uniform data.
class SparseSingle final : public Workload {
 public:
  static constexpr std::size_t kExecutorThreads = 4;
  static constexpr float kEps = 0.07f;
  static constexpr int kMinpts = 4;
  /// Median pair count at kEps of SDSS3-family data over 64 seeds.
  static constexpr double kTargetPairs = 1.51e6;

  explicit SparseSingle(std::uint64_t seed)
      : points_(make_points("SDSS3", 237'947, mix_seed(seed, 4), kEps,
                            kTargetPairs)),
        device_(make_device(kExecutorThreads)) {
    call();
  }

  CallResult call() override {
    hdbscan::ClusterResult r =
        hdbscan::hybrid_dbscan(*device_, points_, kEps, kMinpts);
    CallResult out;
    out.checks.push_back({kEps, kMinpts, r.num_clusters, r.noise_count(),
                          true});
    out.labels = std::move(r.labels);
    return out;
  }

  CallResult traced_call(const TraceCtx& t, Counters& layer) override {
    device_->reset_metrics();
    const hdbscan::GridIndex index = in_span(
        t, "index", [&] { return hdbscan::build_grid_index(points_, kEps); });
    hdbscan::BuildReport rep;
    const hdbscan::NeighborTable table = in_span(t, "builder", [&] {
      return hdbscan::NeighborTableBuilder(*device_).build(index, kEps, &rep);
    });
    add_build_report(layer, rep);
    add_device_metrics(layer, device_->metrics());
    const hdbscan::ClusterResult indexed = in_span(t, "dbscan", [&] {
      return hdbscan::dbscan_neighbor_table(table, kMinpts);
    });
    hdbscan::ClusterResult r =
        hdbscan::unmap_labels(indexed, index.original_ids);
    CallResult out;
    out.checks.push_back({kEps, kMinpts, r.num_clusters, r.noise_count(),
                          true});
    out.labels = std::move(r.labels);
    return out;
  }

  [[nodiscard]] const std::vector<Point2>& points() const override {
    return points_;
  }

 private:
  std::vector<Point2> points_;
  std::unique_ptr<cudasim::Device> device_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "eps_sweep") return std::make_unique<EpsSweep>(seed);
  if (name == "minpts_reuse") return std::make_unique<MinptsReuse>(seed);
  if (name == "serve_zipf") return std::make_unique<ServeZipf>(seed);
  if (name == "sparse_single") return std::make_unique<SparseSingle>(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

// ------------------------------------------------------------ reference --

using RefKey = std::pair<std::uint32_t, int>;  // (eps bits, minpts)

struct Reference {
  std::int32_t clusters = 0;
  std::size_t noise = 0;
};

/// Cluster and noise counts from the sequential R-tree DBSCAN, a path that
/// shares no code with the grid index, the device kernels or the neighbor
/// table. Both counts are independent of border-point visit order.
std::map<RefKey, Reference> compute_references(
    const std::vector<Point2>& points, const std::set<RefKey>& keys) {
  const hdbscan::RTree rtree(points);
  const std::vector<RefKey> todo(keys.begin(), keys.end());
  std::vector<Reference> refs(todo.size());
  parallel_for(todo.size(), kSetupThreads, [&](std::size_t i) {
    const hdbscan::ClusterResult r = hdbscan::dbscan_rtree(
        points, std::bit_cast<float>(todo[i].first), todo[i].second, rtree);
    refs[i] = {r.num_clusters, r.noise_count()};
  });
  std::map<RefKey, Reference> out;
  for (std::size_t i = 0; i < todo.size(); ++i) out[todo[i]] = refs[i];
  return out;
}

/// The eps-neighbor table built from R-tree queries, in input order, for
/// validate_dbscan_result.
hdbscan::NeighborTable rtree_table(const std::vector<Point2>& points,
                                   float eps) {
  const hdbscan::RTree rtree(points);
  std::vector<hdbscan::NeighborPair> pairs;
  std::vector<hdbscan::PointId> found;
  for (std::size_t i = 0; i < points.size(); ++i) {
    found.clear();
    rtree.query_circle(points[i], eps, found);
    std::sort(found.begin(), found.end());
    for (const hdbscan::PointId j : found) {
      pairs.push_back({static_cast<hdbscan::PointId>(i), j});
    }
  }
  hdbscan::NeighborTable table(points.size());
  table.append_sorted_batch(pairs);
  return table;
}

std::uint64_t hash_labels(const std::vector<std::int32_t>& labels) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::int32_t l : labels) {
    h = (h ^ static_cast<std::uint32_t>(l)) * 0x100000001b3ull;
  }
  return h;
}

/// Collects every call's outputs and counts the ones that fail the check.
class OutputChecker {
 public:
  void add(CallResult& r) {
    std::optional<std::uint64_t> hash;
    if (!r.labels.empty()) {
      hash = hash_labels(r.labels);
      distinct_labels_.try_emplace(*hash, std::move(r.labels));
    }
    for (const Check& c : r.checks) {
      checks_.push_back(c);
      label_hash_.push_back(hash);
    }
  }

  [[nodiscard]] std::size_t attempted() const { return checks_.size(); }

  /// Failed clusterings: the entry point reported failure, or the cluster
  /// or noise count differs from the reference, or returned labels fail
  /// validate_dbscan_result.
  std::size_t count_failed(const std::vector<Point2>& points) {
    std::set<RefKey> keys;
    for (const Check& c : checks_) {
      keys.insert({std::bit_cast<std::uint32_t>(c.eps), c.minpts});
    }
    const std::map<RefKey, Reference> refs = compute_references(points, keys);
    std::map<std::uint64_t, bool> labels_valid;
    std::map<float, hdbscan::NeighborTable> tables;  // R-tree table per eps
    for (const auto& [hash, labels] : distinct_labels_) {
      std::size_t i = 0;
      while (label_hash_[i] != hash) ++i;
      const Check& c = checks_[i];
      auto [it, fresh] = tables.try_emplace(c.eps);
      if (fresh) it->second = rtree_table(points, c.eps);
      hdbscan::ClusterResult result;
      result.labels = labels;
      result.num_clusters = c.clusters;
      const hdbscan::CompareOutcome v =
          hdbscan::validate_dbscan_result(result, it->second, c.minpts);
      if (!v.equivalent) {
        std::fprintf(stderr, "perfbench: invalid labels: %s\n",
                     v.diagnostic.c_str());
      }
      labels_valid[hash] = v.equivalent;
    }
    std::size_t failed = 0;
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      const Check& c = checks_[i];
      const Reference& ref =
          refs.at({std::bit_cast<std::uint32_t>(c.eps), c.minpts});
      const bool bad = !c.ok || c.clusters != ref.clusters ||
                       c.noise != ref.noise ||
                       (label_hash_[i] && !labels_valid[*label_hash_[i]]);
      if (bad && failed == 0) {
        std::fprintf(stderr,
                     "perfbench: eps=%g minpts=%d ok=%d clusters=%d "
                     "(reference %d) noise=%zu (reference %zu)\n",
                     static_cast<double>(c.eps), c.minpts, c.ok ? 1 : 0,
                     c.clusters, ref.clusters, c.noise, ref.noise);
      }
      failed += bad ? 1 : 0;
    }
    return failed;
  }

 private:
  std::vector<Check> checks_;
  std::vector<std::optional<std::uint64_t>> label_hash_;
  std::map<std::uint64_t, std::vector<std::int32_t>> distinct_labels_;
};

// ----------------------------------------------------------- harness --

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string state_dir = ".bench_build/perfbench-state";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value: " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
      have_seconds = a.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
      have_trace = true;
    } else if (flag == "--state-dir") {
      a.state_dir = value;
    } else {
      throw std::invalid_argument("unknown flag: " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    throw std::invalid_argument(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--state-dir <dir>]");
  }
  return a;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Builds the workload kSetupRepeats times (inputs, devices, service,
/// calibration, warm-up call) and keeps the last; returns it with the
/// median set-up time.
std::pair<std::unique_ptr<Workload>, double> set_up(const Args& a) {
  std::unique_ptr<Workload> wl;
  std::vector<double> times;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    wl.reset();
    const Clock::time_point t0 = Clock::now();
    wl = make_workload(a.workload, a.seed);
    times.push_back(seconds_since(t0));
  }
  return {std::move(wl), median(times)};
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run_untraced(const Args& a) {
  auto [wl, setup_s] = set_up(a);
  OutputChecker checker;
  std::vector<double> latencies;
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  while (seconds_since(t0) < a.seconds) {
    const Clock::time_point c0 = Clock::now();
    CallResult r = wl->call();
    latencies.push_back(seconds_since(c0));
    checker.add(r);
  }
  const double wall = seconds_since(t0);
  const double cpu = cpu_seconds() - cpu0;
  const double rss = peak_rss_mib();

  const std::size_t attempted = checker.attempted();
  const std::size_t failed = checker.count_failed(wl->points());
  const Tail tl = tail(latencies);
  std::printf("perfbench: workload=%s seed=%llu calls=%zu clusterings=%zu "
              "tail=p%.1f error_rate=%.6f\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              latencies.size(), attempted, tl.percentile,
              static_cast<double>(failed) / static_cast<double>(attempted));
  const double n = static_cast<double>(attempted);
  print_result(failed == 0, attempted, failed,
               {{"setup_s", setup_s, "s"},
                {"clusterings_per_s", n / wall, "1/s"},
                {"latency_p50_s", median(latencies), "s"},
                {"latency_tail_s", tl.value, "s"},
                {"cpu_s_per_clustering", cpu / n, "s"},
                {"peak_rss_mib", rss, "MiB"},
                {"success_rate", (n - static_cast<double>(failed)) / n,
                 "fraction"}});
  return 0;
}

/// Compares the exact counters of the first traced calls within this run
/// (workloads that repeat their work) and against the previous run with
/// the same workload and seed; returns the counters that differ.
std::set<std::string> check_determinism(const Args& a, const Workload& wl,
                                        const std::vector<Counters>& calls) {
  std::set<std::string> flagged;
  const auto differ = [](double x, double y) {
    return std::abs(x - y) > 1e-9 * std::max(std::abs(x), std::abs(y));
  };
  const auto value = [](const Counters& c, const std::string& name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  if (wl.repeats_work()) {
    for (const Counters& c : calls) {
      for (const std::string& name : exact_counters()) {
        if (differ(value(c, name), value(calls.front(), name))) {
          flagged.insert(name);
        }
      }
    }
  }
  namespace fs = std::filesystem;
  fs::create_directories(a.state_dir);
  const fs::path path = fs::path(a.state_dir) /
                        ("counters-" + a.workload + "-" +
                         std::to_string(a.seed) + ".txt");
  if (std::ifstream in(path); in) {
    std::size_t call = 0;
    std::string name;
    double v = 0.0;
    while (in >> call >> name >> v) {
      if (call < calls.size() && differ(value(calls[call], name), v)) {
        flagged.insert(name);
      }
    }
  } else {
    std::ofstream out(path);
    for (std::size_t i = 0; i < calls.size(); ++i) {
      for (const std::string& name : exact_counters()) {
        char line[128];
        std::snprintf(line, sizeof line, "%zu %s %.17g\n", i, name.c_str(),
                      value(calls[i], name));
        out << line;
      }
    }
  }
  return flagged;
}

void write_spans(const Args& a, const std::vector<Span>& spans) {
  namespace fs = std::filesystem;
  fs::create_directories(a.state_dir);
  std::ofstream out(fs::path(a.state_dir) / ("spans-" + a.workload + "-" +
                                             std::to_string(a.seed) +
                                             ".json"));
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                  "\"call\": %d, \"begin_s\": %.9f, \"end_s\": %.9f}%s\n",
                  i, spans[i].name.c_str(), spans[i].parent, spans[i].call,
                  spans[i].begin, spans[i].end,
                  i + 1 < spans.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
}

int run_traced(const Args& a) {
  const std::unique_ptr<Workload> wl = set_up(a).first;
  OutputChecker checker;
  SpanLog log;
  std::vector<double> plain_walls;
  std::vector<double> traced_walls;
  std::vector<int> roots;
  std::vector<Counters> fingerprint;
  Counters layer;   // summed over traced calls
  Counters report;  // summed over untraced calls
  const Clock::time_point t0 = Clock::now();
  int call_id = 0;
  while (seconds_since(t0) < a.seconds ||
         fingerprint.size() < kFingerprintCalls) {
    const Clock::time_point c0 = Clock::now();
    CallResult plain = wl->call();
    plain_walls.push_back(seconds_since(c0));
    for (const auto& [k, v] : plain.report) report[k] += v;
    checker.add(plain);

    const int root = log.open("call", -1, call_id);
    const TraceCtx ctx{log, root, call_id};
    Counters per_call;
    const Clock::time_point c1 = Clock::now();
    CallResult traced = wl->traced_call(ctx, per_call);
    traced_walls.push_back(seconds_since(c1));
    log.close(root);
    roots.push_back(root);
    checker.add(traced);
    for (const auto& [k, v] : per_call) {
      layer[k] = k == "cudasim.peak_device_bytes" ? std::max(layer[k], v)
                                                   : layer[k] + v;
    }
    if (fingerprint.size() < kFingerprintCalls) {
      fingerprint.push_back(per_call);
    }
    ++call_id;
  }
  const std::size_t attempted = checker.attempted();
  const std::size_t failed = checker.count_failed(wl->points());

  // Per-layer self time: each span minus the union of its children; a
  // call's root self time is the part of its wall no layer span covers.
  const std::vector<Span> spans = log.snapshot();
  std::map<int, std::vector<Interval>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back({s.begin, s.end});
  }
  std::map<std::string, double> self;
  std::map<std::string, double> count;
  double root_self = 0.0;
  double root_wall = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double own = self_seconds({s.begin, s.end},
                                    children[static_cast<int>(i)]);
    if (s.parent < 0) {
      root_self += own;
      root_wall += s.end - s.begin;
    } else {
      self[s.name] += own;
      count[s.name] += 1;
    }
  }
  write_spans(a, spans);
  const std::set<std::string> flagged =
      check_determinism(a, *wl, fingerprint);

  const double n = static_cast<double>(roots.size());
  const auto per_call = [&](const std::string& k) { return layer[k] / n; };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double gap = ratio(root_self, root_wall);
  std::printf("perfbench: workload=%s seed=%llu traced_calls=%zu "
              "unattributed=%.4f (stated gap %.2f: %s)\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              roots.size(), gap, kTraceGapBound,
              gap <= kTraceGapBound ? "within" : "EXCEEDED");
  std::printf("perfbench: exact counters measured, not counted:");
  for (const std::string& f : flagged) std::printf(" %s", f.c_str());
  std::printf("%s\n", flagged.empty() ? " none" : "");

  // Consecutive service waves differ, so there the overhead is the traced
  // call's wall beyond the replay() it wraps; elsewhere a traced replay
  // and an untraced call do the same work and their medians compare.
  const double overhead =
      wl->repeats_work()
          ? median(traced_walls) / median(plain_walls) - 1.0
          : ratio(root_wall, layer["service.replay_s"]) - 1.0;
  const double jobs = layer["service.jobs"];
  const double hits = layer["service.cache_hits"];
  const double misses = layer["service.cache_misses"];
  print_result(
      failed == 0, attempted, failed,
      {{"index.build_s", self["index"] / n, "s"},
       {"index.builds", count["index"] / n, "count"},
       {"builder.build_s", (self["builder"] + layer["builder.build_s"]) / n,
        "s"},
       {"builder.estimate_s", per_call("builder.estimate_s"), "s"},
       {"builder.expand_s", per_call("builder.expand_s"), "s"},
       {"builder.batches", per_call("builder.batches"), "count"},
       {"builder.overflow_splits", per_call("builder.overflow_splits"),
        "count"},
       {"builder.pairs", per_call("builder.pairs"), "count"},
       {"gpu.kernel_flops", per_call("gpu.kernel_flops"), "flop"},
       {"gpu.kernel_global_bytes", per_call("gpu.kernel_global_bytes"),
        "bytes"},
       {"gpu.atomic_ops", per_call("gpu.atomic_ops"), "count"},
       {"gpu.pairs_per_flop",
        ratio(layer["builder.pairs"], layer["gpu.kernel_flops"]), "1/flop"},
       {"cudasim.kernel_wall_s", per_call("cudasim.kernel_wall_s"), "s"},
       {"cudasim.kernel_modeled_s", per_call("cudasim.kernel_modeled_s"),
        "s"},
       {"cudasim.kernel_launches", per_call("cudasim.kernel_launches"),
        "count"},
       {"cudasim.h2d_bytes", per_call("cudasim.h2d_bytes"), "bytes"},
       {"cudasim.d2h_bytes", per_call("cudasim.d2h_bytes"), "bytes"},
       {"cudasim.transfer_s", per_call("cudasim.transfer_s"), "s"},
       {"cudasim.pinned_alloc_s", per_call("cudasim.pinned_alloc_s"), "s"},
       {"cudasim.pool_hit_ratio",
        ratio(layer["cudasim.pool_hits"],
              layer["cudasim.pool_hits"] + layer["cudasim.pool_misses"]),
        "fraction"},
       {"cudasim.peak_device_bytes", layer["cudasim.peak_device_bytes"],
        "bytes"},
       {"dbscan.cluster_s", (self["dbscan"] + layer["dbscan.cluster_s"]) / n,
        "s"},
       {"dbscan.calls", (count["dbscan"] + layer["dbscan.calls"]) / n,
        "count"},
       {"pipeline.overlap_ratio",
        ratio(report["pipeline.table_s"] + report["pipeline.dbscan_s"],
              report["pipeline.wall_s"]),
        "ratio"},
       {"reuse.table_s", report["reuse.table_s"] /
                             static_cast<double>(plain_walls.size()),
        "s"},
       {"reuse.cluster_wall_s", report["reuse.cluster_wall_s"] /
                                    static_cast<double>(plain_walls.size()),
        "s"},
       {"service.cache_hit_ratio", ratio(hits, hits + misses), "fraction"},
       {"service.cache_evictions", per_call("service.cache_evictions"),
        "count"},
       {"service.builds", per_call("service.cache_misses"), "count"},
       {"service.coalesced_fraction",
        ratio(layer["service.coalesced_jobs"], jobs), "fraction"},
       {"service.queue_wait_s", self["service.queue_wait"] / n, "s"},
       {"service.build_s", self["service.build"] / n, "s"},
       {"service.finalize_s", self["service.finalize"] / n, "s"},
       {"service.not_completed", per_call("service.not_completed"), "count"},
       {"obs.trace_overhead_fraction", overhead, "fraction"},
       {"obs.unattributed_fraction", gap, "fraction"},
       {"obs.flagged_counters", static_cast<double>(flagged.size()),
        "count"}});
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // A fixed mmap threshold returns freed tables to the OS at once, so the
  // peak RSS tracks live memory instead of glibc's adaptive heap growth.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    return args.trace ? perfbench::run_traced(args)
                      : perfbench::run_untraced(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
