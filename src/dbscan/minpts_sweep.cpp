#include "dbscan/minpts_sweep.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <functional>
#include <latch>
#include <memory>
#include <stdexcept>
#include <thread>

#include "dbscan/atomic_union_find.hpp"
#include "obs/trace.hpp"

namespace hdbscan {

namespace {

constexpr std::uint64_t kRankMask = 0xffff'ffffULL;

/// Raises `a` to `v` if `v` is larger.
void raise_to(std::atomic<std::uint64_t>& a, std::uint64_t v) noexcept {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Start of part `part` of `parts` when [begin, end) of the group-sorted
/// order is cut into equal shares of row length; `prefix` holds the
/// running row-length sums (prefix[i] = sum of the first i rows).
std::size_t weighted_cut(std::span<const std::uint64_t> prefix,
                         std::size_t begin, std::size_t end, unsigned part,
                         unsigned parts) {
  const std::uint64_t base = prefix[begin];
  const std::uint64_t target = base + (prefix[end] - base) * part / parts;
  return static_cast<std::size_t>(
      std::lower_bound(prefix.begin() + static_cast<std::ptrdiff_t>(begin),
                       prefix.begin() + static_cast<std::ptrdiff_t>(end),
                       target) -
      prefix.begin());
}

}  // namespace

MinptsSweep dbscan_minpts_sweep(const NeighborTable& table,
                                std::span<const int> minpts,
                                unsigned num_threads,
                                std::span<const PointId> original_ids) {
  const std::size_t n = table.num_points();
  if (!original_ids.empty() && original_ids.size() != n) {
    throw std::invalid_argument(
        "dbscan_minpts_sweep: original_ids must hold one id per table row");
  }
  TRACE_SPAN("dbscan", "minpts_sweep n=%zu k=%zu", n, minpts.size());

  MinptsSweep sweep;
  sweep.results.resize(minpts.size());
  sweep.outcomes.resize(minpts.size());

  // Levels: the distinct valid thresholds, descending.
  std::vector<std::uint32_t> thresholds;
  for (std::size_t i = 0; i < minpts.size(); ++i) {
    if (minpts[i] < 1) {
      sweep.outcomes[i] = {false, "dbscan: minpts must be >= 1"};
    } else {
      thresholds.push_back(static_cast<std::uint32_t>(minpts[i]));
    }
  }
  if (thresholds.empty()) {
    if (!minpts.empty()) {
      throw std::invalid_argument(sweep.outcomes.front().error);
    }
    return sweep;
  }
  std::sort(thresholds.begin(), thresholds.end(), std::greater<>());
  thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                   thresholds.end());
  const std::size_t levels = thresholds.size();
  // First level at which degree d is core (= how many thresholds exceed
  // it); `levels` means core at none.
  auto level_of = [&](std::uint32_t d) {
    return static_cast<std::size_t>(
        std::lower_bound(thresholds.begin(), thresholds.end(), d,
                         std::greater<>()) -
        thresholds.begin());
  };

  // Each level writes into the buffer of the first request naming it.
  std::vector<std::size_t> owner(levels);
  for (std::size_t i = minpts.size(); i-- > 0;) {
    if (sweep.outcomes[i].ok) {
      owner[level_of(static_cast<std::uint32_t>(minpts[i]))] = i;
    }
  }

  // Counting sort into threshold groups: group l = the points that turn
  // core at level l, ascending id inside a group; group `levels` = never
  // core. A point's rank is its position in that order, so the core set
  // of level l is exactly ranks [0, group_begin[l + 1]).
  std::vector<std::uint32_t> degree(n);
  std::vector<std::uint32_t> level(n);
  std::vector<std::size_t> group_begin(levels + 2, 0);
  for (PointId p = 0; p < n; ++p) {
    degree[p] = table.neighbor_count(p);
    level[p] = static_cast<std::uint32_t>(level_of(degree[p]));
    ++group_begin[level[p] + 1];
  }
  for (std::size_t l = 1; l < group_begin.size(); ++l) {
    group_begin[l] += group_begin[l - 1];
  }
  std::vector<PointId> order(n);
  {
    std::vector<std::size_t> cursor(group_begin.begin(),
                                    group_begin.end() - 1);
    for (PointId p = 0; p < n; ++p) order[cursor[level[p]]++] = p;
  }
  // row_prefix sums row lengths in rank order, to cut work; degree_rank
  // packs (degree << 32 | rank) so a row entry costs one load.
  std::vector<std::uint64_t> row_prefix(n + 1, 0);
  std::vector<std::uint64_t> degree_rank(n);
  for (std::size_t i = 0; i < n; ++i) {
    const PointId p = order[i];
    row_prefix[i + 1] = row_prefix[i] + degree[p];
    degree_rank[p] = std::uint64_t{degree[p]} << 32 | i;
  }

  const unsigned workers =
      num_threads != 0 ? num_threads
                       : std::max(1u, std::thread::hardware_concurrency());
  // The forest runs over ranks: a newly core point joins sets whose roots
  // (smallest member) rank below it, so trees stay as shallow as in an
  // id-order pass.
  AtomicUnionFind uf(n);
  // Anchor key per point: (degree << 32 | ~id) of its anchor, 0 = none.
  const std::size_t never_core = group_begin[levels];
  auto anchor = std::make_unique<std::atomic<std::uint64_t>[]>(n);
  for (std::size_t p = 0; p < n; ++p) {
    anchor[p].store(0, std::memory_order_relaxed);
  }
  // Everything the workers write is allocated here, so they cannot throw.
  for (const std::size_t i : owner) sweep.results[i].labels.resize(n);
  // Per worker: root rank -> cluster id while numbering one level.
  std::vector<std::vector<std::int32_t>> cluster_of(
      workers, std::vector<std::int32_t>(never_core, -1));
  std::barrier sync(static_cast<std::ptrdiff_t>(workers));
  std::atomic<std::size_t> next_level{0};
  std::atomic<std::uint64_t> edge_unions{0};
  auto slot = [&](PointId p) -> std::size_t {
    return original_ids.empty() ? p : original_ids[p];
  };

  auto run = [&](unsigned w) {
    std::uint64_t unions = 0;
    // Phase 1: the core rows, group by group, each read once.
    for (std::size_t l = 0; l < levels; ++l) {
      if (group_begin[l + 1] == 0) continue;  // no core yet: all noise
      const std::size_t end =
          weighted_cut(row_prefix, group_begin[l], group_begin[l + 1],
                       w + 1, workers);
      for (std::size_t i = weighted_cut(row_prefix, group_begin[l],
                                        group_begin[l + 1], w, workers);
           i < end; ++i) {
        const PointId p = order[i];
        const auto rank = static_cast<std::uint32_t>(i);
        const std::uint64_t key = (degree_rank[p] & ~kRankMask) | ~p;
        // Anchor as one branch-free max over (degree, ~id) keys: the
        // largest degree wins, ties go to the smallest id; p keys to 0.
        std::uint64_t best = 0;
        std::uint32_t root = rank;  // a member of p's set, near its root
        for (const PointId q : table.neighbors(p)) {
          const std::uint64_t dr = degree_rank[q];
          best = std::max(best, q == p ? 0 : (dr & ~kRankMask) | ~q);
          const auto q_rank = static_cast<std::uint32_t>(dr);
          if (q_rank < rank) {
            // Rank guard: q turned core at an earlier level, or at this
            // one with a smaller id, so each core-core edge unites once,
            // from its later endpoint's row.
            if (uf.unite(root, q_rank)) root = uf.find(root);
            ++unions;
          } else if (q_rank >= never_core) {
            // q is core at no level, so its row is never read: offer p as
            // its anchor. Only a core neighbor's label can reach q, so the
            // max over its core neighbors labels q as the full max would.
            raise_to(anchor[q], key);
          }
        }
        anchor[p].store(best, std::memory_order_relaxed);
      }
      sync.arrive_and_wait();

      // Snapshot level l's core partition (ranks below group_begin[l+1])
      // before the next level's unions move any root.
      const std::size_t cores = group_begin[l + 1];
      const std::size_t chunk = (cores + workers - 1) / workers;
      std::int32_t* out = sweep.results[owner[l]].labels.data();
      for (std::size_t i = std::min(cores, w * chunk),
                       stop = std::min(cores, (w + 1) * chunk);
           i < stop; ++i) {
        out[slot(order[i])] = static_cast<std::int32_t>(
            uf.find(static_cast<std::uint32_t>(i)));
      }
      sync.arrive_and_wait();
    }
    edge_unions.fetch_add(unions, std::memory_order_relaxed);
    sync.arrive_and_wait();  // every snapshot and anchor is in place

    // Phase 2: labels, one level per claim. The snapshot slot of a core
    // point holds its set's root rank. Walking cores in ascending id, the
    // first member seen opens the set's cluster: clusters are numbered by
    // their smallest core id, as dbscan_neighbor_table numbers them.
    std::vector<std::int32_t>& cluster_of_root = cluster_of[w];
    for (;;) {
      const std::size_t l =
          next_level.fetch_add(1, std::memory_order_relaxed);
      if (l >= levels) break;
      const std::uint32_t m = thresholds[l];
      ClusterResult& result = sweep.results[owner[l]];
      std::int32_t* out = result.labels.data();
      const std::size_t cores = group_begin[l + 1];
      std::int32_t clusters = 0;
      if (cores == 0) {
        std::fill_n(out, n, kNoise);
      } else {
        for (PointId p = 0; p < n; ++p) {
          if (degree[p] < m) continue;
          std::int32_t& label = out[slot(p)];
          std::int32_t& cluster =
              cluster_of_root[static_cast<std::size_t>(label)];
          if (cluster < 0) cluster = clusters++;
          label = cluster;
        }
        for (PointId p = 0; p < n; ++p) {
          if (degree[p] >= m) continue;
          const std::uint64_t a = anchor[p].load(std::memory_order_relaxed);
          out[slot(p)] = (a >> 32) >= m
                             ? out[slot(~static_cast<PointId>(a))]
                             : kNoise;
        }
        // Every root ranks below `cores`.
        std::fill_n(cluster_of_root.begin(), cores, -1);
      }
      result.num_clusters = clusters;
      result.finalize_noise_count();
    }
  };

  // The caller is worker 0. Workers hold at `start` until all exist: a
  // failed spawn would otherwise leave every barrier a worker short.
  std::latch start(1);
  std::atomic<bool> abandon{false};
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  try {
    for (unsigned w = 1; w < workers; ++w) {
      pool.emplace_back([&, w] {
        start.wait();
        if (!abandon.load()) run(w);
      });
    }
  } catch (...) {
    abandon.store(true);
    start.count_down();
    for (std::thread& t : pool) t.join();
    throw;
  }
  start.count_down();
  run(0);
  for (std::thread& t : pool) t.join();
  sweep.edge_unions = edge_unions.load();

  for (std::size_t i = 0; i < minpts.size(); ++i) {
    if (!sweep.outcomes[i].ok) continue;
    const std::size_t o =
        owner[level_of(static_cast<std::uint32_t>(minpts[i]))];
    if (o != i) sweep.results[i] = sweep.results[o];
  }
  return sweep;
}

}  // namespace hdbscan
