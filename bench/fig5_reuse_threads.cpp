// Figure 5 / Scenario S3: response time vs number of host threads when one
// neighbor table (fixed eps) is reused for 16 minpts variants.
//
// Paper shape: strong drop from 1 to ~8 threads, flattening after;
// speedups 4.4-6.1x (SW1) and 2.9-5.1x (SDSS1) at 16 threads. The paper's
// scheme (one DBSCAN per minpts on k threads) is modeled: the per-variant
// durations are measured sequentially and scheduled onto k workers
// (greedy FIFO). Beside it, the product's one-pass sweep over the same T
// (dbscan_minpts_sweep) is measured on k real threads of this host.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/makespan.hpp"
#include "dbscan/minpts_sweep.hpp"
#include "scenarios.hpp"

int main() {
  using namespace hdbscan;
  bench::banner("Figure 5 — response time vs threads, reusing T (S3)",
                "Fig. 5 (paper: 2.9-6.1x from 16 threads)");

  const unsigned thread_counts[] = {1, 2, 4, 8, 12, 16};

  for (const auto& scenario : bench::scenario_s3()) {
    // Figure 5 plots SW1, SW4, SDSS1 and SDSS3 only (SDSS2 omitted there).
    if (scenario.dataset == "SDSS2") continue;
    const auto points = bench::load(scenario.dataset);
    cudasim::Device device = bench::make_device();
    const bench::ReuseTable t =
        bench::build_reuse_table(device, points, scenario.eps);
    const std::vector<double> per_minpts =
        bench::time_per_minpts(t.table, scenario.minpts_values);

    std::printf("\n  [%s eps=%.2f]  T build (modeled): %.3f s, %zu variants\n",
                scenario.dataset.c_str(), scenario.eps,
                t.modeled_table_seconds, scenario.minpts_values.size());
    std::printf("  %8s %14s %14s %9s %14s\n", "threads", "dbscan (s)",
                "total (s)", "speedup", "sweep (s)");
    double t1 = 0.0;
    for (const unsigned k : thread_counts) {
      const double dbscan_s = makespan_seconds(per_minpts, k);
      const double total_s = t.modeled_table_seconds + dbscan_s;
      if (k == 1) t1 = total_s;
      WallTimer sweep_timer;
      (void)dbscan_minpts_sweep(t.table, scenario.minpts_values, k);
      const double sweep_s = sweep_timer.seconds();
      std::printf("  %8u %14.3f %14.3f %8.2fx %14.3f\n", k, dbscan_s,
                  total_s, t1 / total_s, sweep_s);
    }
  }
  std::printf(
      "\n'dbscan (s)' = modeled k-worker makespan of the measured"
      " per-variant durations.\n'sweep (s)' = measured wall of the"
      " one-pass sweep over the same T on k threads\nof this host (it"
      " cannot scale past the host's cores).\nExpected shape: near-linear"
      " drop to ~8 threads, flattening beyond; the gap\nbetween total and"
      " dbscan time is the one-off T construction.\n");
  return 0;
}
