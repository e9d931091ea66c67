// Checks perfbench/stats.hpp on inputs whose answers are known (the
// expected quartiles are what Python's statistics.quantiles(values, n=4)
// returns for the same data). Exits non-zero on the first mismatch.
//
//   $ .bench_build/perfbench/perfbench_stats_test
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect_near(const char* what, double got, double want) {
  if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
    std::fprintf(stderr, "FAIL %s: got %.12g, want %.12g\n", what, got, want);
    ++failures;
  }
}

void expect_eq(const char* what, std::size_t got, std::size_t want) {
  if (got != want) {
    std::fprintf(stderr, "FAIL %s: got %zu, want %zu\n", what, got, want);
    ++failures;
  }
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

}  // namespace

int main() {
  using perfbench::summarize;

  // 1..10: statistics.quantiles -> [2.75, 5.5, 8.25].
  const perfbench::Summary ten = summarize({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  expect_eq("ten.count", ten.count, 10);
  expect_near("ten.q1", ten.q1, 2.75);
  expect_near("ten.median", ten.median, 5.5);
  expect_near("ten.q3", ten.q3, 8.25);
  // Fewer than 20 samples: not even the median has ten beyond it.
  expect_near("ten.tail_pct", ten.tail_pct, 0.0);

  // Unsorted, non-integer: statistics.quantiles -> [1.5, 3.5, 8.125].
  const perfbench::Summary five = summarize({3.5, 1.0, 9.0, 2.0, 7.25});
  expect_near("five.q1", five.q1, 1.5);
  expect_near("five.median", five.median, 3.5);
  expect_near("five.q3", five.q3, 8.125);

  // 1..1000: p99 sits at rank 990.99 with exactly ten samples beyond it;
  // p99.9 would have one.
  const perfbench::Summary thousand = summarize(iota(1000));
  expect_near("thousand.median", thousand.median, 500.5);
  expect_near("thousand.q1", thousand.q1, 250.25);
  expect_near("thousand.tail_pct", thousand.tail_pct, 99.0);
  expect_near("thousand.tail", thousand.tail, 990.99);
  expect_eq("beyond(1000, .99)", perfbench::samples_beyond(1000, 0.99), 10);
  expect_eq("beyond(999, .99)", perfbench::samples_beyond(999, 0.99), 9);
  expect_near("tail_pct(999)", perfbench::tail_percentile(999), 95.0);
  expect_near("tail_pct(10009)", perfbench::tail_percentile(10009), 99.9);
  expect_near("tail_pct(20)", perfbench::tail_percentile(20), 50.0);

  // Clamping at the ends and the degenerate cases.
  expect_near("one.median", summarize({4.0}).median, 4.0);
  expect_near("q(0)", perfbench::quantile({5, 1, 3}, 0.0), 1.0);
  expect_near("q(1)", perfbench::quantile({5, 1, 3}, 1.0), 5.0);
  expect_near("empty.quantile", perfbench::quantile({}, 0.5), 0.0);
  expect_eq("empty.count", summarize({}).count, 0);

  if (failures != 0) {
    std::fprintf(stderr, "perfbench_stats_test: %d failure(s)\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench_stats_test: ok\n");
  return EXIT_SUCCESS;
}
