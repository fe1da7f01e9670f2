// Arithmetic of the benchmark's reported figures: medians, quartiles, the
// tail percentile, and span self time. Header-only and free of product
// dependencies so test_stats.cpp can check it in isolation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes).
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// First and third quartile, matching Python's
/// `statistics.quantiles(v, n=4)` (the default 'exclusive' method), which
/// is how the spread of the benchmark's figures is judged.
inline std::pair<double, double> quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need 2 samples");
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  const long n = 4;
  auto cut = [&](long i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    return (v[j - 1] * static_cast<double>(n - delta) +
            v[j] * static_cast<double>(delta)) /
           static_cast<double>(n);
  };
  return {cut(1), cut(3)};
}

/// The tail the benchmark reports: the highest percentile that still has
/// at least `beyond` samples above it. Sorted ascending, that is the
/// sample at rank n - beyond - 1; it sits at percentile
/// 100 * (n - beyond) / n. With fewer than beyond + 1 samples there is no
/// such percentile and the maximum is returned at percentile 100.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
};

inline Tail tail(std::vector<double> v, std::size_t beyond = 10) {
  if (v.empty()) throw std::invalid_argument("tail of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= beyond) return {v.back(), 100.0};
  return {v[n - beyond - 1],
          100.0 * static_cast<double>(n - beyond) / static_cast<double>(n)};
}

/// Closed time interval [begin, end] in seconds.
struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// Length of the union of `parts` clipped to `within`: overlapping parts
/// (three consumers clustering at once) are counted once.
inline double covered_seconds(std::vector<Interval> parts,
                              const Interval& within) {
  for (Interval& p : parts) {
    p.begin = std::max(p.begin, within.begin);
    p.end = std::min(p.end, within.end);
  }
  std::erase_if(parts, [](const Interval& p) { return p.end <= p.begin; });
  std::sort(parts.begin(), parts.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  double total = 0.0;
  double run_begin = 0.0;
  double run_end = 0.0;
  bool open = false;
  for (const Interval& p : parts) {
    if (open && p.begin <= run_end) {
      run_end = std::max(run_end, p.end);
      continue;
    }
    if (open) total += run_end - run_begin;
    run_begin = p.begin;
    run_end = p.end;
    open = true;
  }
  if (open) total += run_end - run_begin;
  return total;
}

/// A span's self time: its duration minus the part its children cover.
inline double self_seconds(const Interval& span,
                           const std::vector<Interval>& children) {
  return (span.end - span.begin) - covered_seconds(children, span);
}

}  // namespace perfbench
