// Figure 6 / Scenario S3: speedup of 16-thread HYBRID-DBSCAN reusing a
// single neighbor table over the reference implementation clustering each
// of the 16 minpts variants individually.
//
// Paper shape: 27x-54x across the Table V rows — the headline result.
#include <cstdio>

#include "bench_common.hpp"
#include "common/makespan.hpp"
#include "core/reuse.hpp"
#include "dbscan/dbscan.hpp"
#include "index/rtree.hpp"
#include "scenarios.hpp"

int main() {
  using namespace hdbscan;
  bench::banner("Figure 6 — reuse speedup vs reference (S3)",
                "Fig. 6 (paper: 27x-54x with 16 threads and one T per eps)");

  std::printf("\n%-8s %6s | %12s %14s | %10s | %12s %10s\n", "Dataset",
              "eps", "ref (s)", "hybrid16 (s)", "speedup", "sweep (s)",
              "speedup");

  std::string cached_name;
  std::vector<Point2> points;
  double grand_ref = 0.0, grand_hybrid = 0.0, grand_sweep = 0.0;
  for (const auto& scenario : bench::scenario_s3()) {
    if (scenario.dataset != cached_name) {
      points = bench::load(scenario.dataset);
      cached_name = scenario.dataset;
    }

    // Reference: one full sequential run per minpts value (the index
    // searches repeat identically each time — exactly the waste the reuse
    // scheme removes).
    const RTree rtree(points);
    WallTimer ref_timer;
    for (const int minpts : scenario.minpts_values) {
      (void)dbscan_rtree(points, scenario.eps, minpts, rtree);
    }
    const double ref_s = ref_timer.seconds();

    // Hybrid: T once, then the 16 variants on 16 modeled workers.
    cudasim::Device device = bench::make_device();
    const bench::ReuseTable t =
        bench::build_reuse_table(device, points, scenario.eps);
    const double hybrid_s =
        t.modeled_table_seconds +
        makespan_seconds(
            bench::time_per_minpts(t.table, scenario.minpts_values), 16);
    // The product path: T once, then one sweep for every minpts.
    cudasim::Device sweep_device = bench::make_device();
    const ReuseReport report = cluster_minpts_sweep(
        sweep_device, points, scenario.eps, scenario.minpts_values, 16);
    const double sweep_s =
        report.modeled_table_seconds + report.dbscan_wall_seconds;

    grand_ref += ref_s;
    grand_hybrid += hybrid_s;
    grand_sweep += sweep_s;
    std::printf("%-8s %6.2f | %12.2f %14.3f | %9.1fx | %12.3f %9.1fx\n",
                scenario.dataset.c_str(), scenario.eps, ref_s, hybrid_s,
                ref_s / hybrid_s, sweep_s, ref_s / sweep_s);
  }
  std::printf("%-8s %6s | %12.2f %14.3f | %9.1fx | %12.3f %9.1fx\n",
              "TOTAL", "", grand_ref, grand_hybrid, grand_ref / grand_hybrid,
              grand_sweep, grand_ref / grand_sweep);
  std::printf(
      "\n'hybrid16' = one T build + modeled 16-worker makespan of the"
      " measured\nper-variant DBSCAN times. 'sweep' = the same modeled T"
      " build + the measured\nwall of cluster_minpts_sweep's one-pass"
      " sweep on 16 threads of this host.\nExpected shape: tens-fold"
      " speedups (paper: 27x-54x),\nlargest where the eps-neighborhoods are"
      " big and the R-tree re-search cost high.\n");
  return 0;
}
