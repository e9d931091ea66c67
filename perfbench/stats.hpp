// Order statistics for the benchmark's timings.
//
// A timing is reported as its median, its quartiles and the highest
// percentile that still has at least ten samples beyond it, together with
// the sample count. Quantiles follow the "exclusive" method of Python's
// statistics.quantiles (R type 6): the p-quantile sits at 1-based rank
// p * (n + 1), linearly interpolated between neighbours. Ranks outside
// [1, n] clamp to the extreme samples, where Python would extrapolate.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// p-quantile (p in [0, 1]) of an ascending-sorted, non-empty sample.
inline double quantile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("quantile of no samples");
  const double n = static_cast<double>(sorted.size());
  const double rank = p * (n + 1.0);  // 1-based
  if (rank <= 1.0) return sorted.front();
  if (rank >= n) return sorted.back();
  const double lo = std::floor(rank);
  const double frac = rank - lo;
  const auto i = static_cast<std::size_t>(lo) - 1;
  return sorted[i] + frac * (sorted[i + 1] - sorted[i]);
}

/// Sample positions strictly above the p-quantile's rank p * (n + 1).
inline std::size_t samples_beyond(std::size_t n, double p) {
  const double rank = std::floor(p * (static_cast<double>(n) + 1.0) + 1e-9);
  if (rank <= 0.0) return n;
  if (rank >= static_cast<double>(n)) return 0;
  return n - static_cast<std::size_t>(rank);
}

struct Summary {
  std::size_t count = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  /// Highest of {99.9, 99, 95, 90, 75, 50} with >= 10 samples beyond it;
  /// 0 when even the median has fewer than ten (count < 20).
  double tail_pct = 0.0;
  double tail = 0.0;
};

inline constexpr double kTailCandidates[] = {99.9, 99.0, 95.0, 90.0, 75.0,
                                             50.0};

/// Highest candidate percentile with at least `min_beyond` samples past it.
inline double tail_percentile(std::size_t n, std::size_t min_beyond = 10) {
  for (const double pct : kTailCandidates) {
    if (samples_beyond(n, pct / 100.0) >= min_beyond) return pct;
  }
  return 0.0;
}

inline Summary summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.median = quantile_sorted(values, 0.50);
  s.q1 = quantile_sorted(values, 0.25);
  s.q3 = quantile_sorted(values, 0.75);
  s.tail_pct = tail_percentile(values.size());
  if (s.tail_pct > 0.0) s.tail = quantile_sorted(values, s.tail_pct / 100.0);
  return s;
}

/// p-quantile of an unsorted sample; 0 for an empty one.
inline double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, p);
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

}  // namespace perfbench
