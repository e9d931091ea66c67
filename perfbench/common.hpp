// Shared pieces of the perfbench binary: run settings, output checks
// counted as operations, host-clock spans, digests and the interface each
// workload implements.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "stats.hpp"
#include "wrappers.hpp"

namespace perfbench {

namespace fs = std::filesystem;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path out = ".";  // build tree: working data and traces go here
};

/// Per-layer values of one traced job, by metric name.
using Values = std::map<std::string, double>;

/// Per-call host timings in microseconds, pooled over traced jobs.
using CallPools = std::map<std::string, std::vector<double>>;

/// Operations attempted and failed, plus checks that fail the whole run.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  /// Counts `ops` attempted operations, of which `bad` failed `what`.
  void add(std::uint64_t ops, std::uint64_t bad, const std::string& what) {
    attempted += ops;
    failed += bad;
    if (bad != 0) problems.push_back(what);
  }
  void require(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  bool correct() const { return failed == 0 && problems.empty(); }
};

template <class F>
double time_s(F&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_since(t0, Clock::now());
}

/// Host clock shared by the wrappers' call logs and the span recorder.
struct HostClock {
  Clock::time_point origin = Clock::now();
  double now() const { return seconds_since(origin, Clock::now()); }
};

/// Spans of traced jobs, kept in memory in an obs::Tracer running on the
/// host clock, and written out once when the benchmark ends.
class Spans {
 public:
  explicit Spans(const HostClock& clock) {
    tracer_.use_clock([&clock] { return clock.now(); });
  }
  /// Runs fn inside a span and returns its host duration in seconds.
  double time(const char* name, const char* cat,
              const std::function<void()>& fn) {
    const double t0 = tracer_.now();
    fn();
    const double t1 = tracer_.now();
    tracer_.complete(name, cat, t0, t1);
    return t1 - t0;
  }
  /// Copies up to kMaxCallSpans intercepted calls of one job into spans;
  /// the rest are summarized but not written, which bounds the file.
  void add_calls(const char* name, const char* cat,
                 const std::vector<Call>& calls) {
    for (std::size_t i = 0; i < calls.size() && i < kMaxCallSpans; ++i) {
      tracer_.complete(name, cat, calls[i].begin, calls[i].end);
    }
  }
  void write(const fs::path& path) const {
    fs::create_directories(path.parent_path());
    tracer_.write_file(path.string());
  }

  static constexpr std::size_t kMaxCallSpans = 4096;

 private:
  autolearn::obs::Tracer tracer_;
};

// FNV-1a over raw bytes: report digests compare repeats bit for bit.
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

inline std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}
template <class T>
std::uint64_t fnv(std::uint64_t h, const T& v) {
  return fnv(h, &v, sizeof(v));
}

inline void append_micros(const std::vector<Call>& calls,
                          std::vector<double>& us) {
  for (const Call& c : calls) us.push_back(c.seconds() * 1e6);
}

/// One commentary line: count, median, quartiles and tail percentile.
inline void print_summary(const std::string& what,
                          const std::vector<double>& values,
                          const char* unit = "us") {
  const Summary s = summarize(values);
  std::cout << "  " << what << ": n=" << s.count << " median=" << s.median
            << unit << " q1=" << s.q1 << unit << " q3=" << s.q3 << unit
            << " p" << s.tail_pct << "=" << s.tail << unit << "\n";
}

/// Samples a per-call p99 needs: ten beyond it.
constexpr std::size_t kP99Samples = 1000;

/// p99 of a per-call timing pool; fails the run when fewer than ten
/// samples lie beyond it. An empty pool (layer unused) reads 0.
inline double p99_us(const std::vector<double>& us, const std::string& what,
                     Outcome& outcome) {
  if (us.empty()) return 0.0;
  outcome.require(samples_beyond(us.size(), 0.99) >= 10,
                  what + ": too few samples for a p99");
  return quantile(us, 0.99);
}

/// One workload of the benchmark.
class Bench {
 public:
  virtual ~Bench() = default;

  /// One untraced job: appends its set-up and job host seconds, and
  /// counts its output checks into `outcome`.
  virtual void untraced_job(std::vector<double>& setup_s,
                            std::vector<double>& job_s, Outcome& outcome) = 0;

  /// One traced job through the timing wrappers: appends its per-layer
  /// values and per-call timings; returns its host seconds.
  virtual double traced_job(Spans& spans, const HostClock& clock,
                            std::vector<Values>& layers, CallPools& calls,
                            Outcome& outcome) = 0;

  /// True once the pooled per-call timings can carry every reported p99.
  virtual bool enough_calls(const CallPools& /*calls*/) const { return true; }

  /// Fills the per-call percentiles and any layer measured outside the
  /// jobs, after the traced jobs.
  virtual void finish_trace(Spans& spans, const CallPools& calls,
                            Values& values, Outcome& outcome) = 0;

  /// Prints the last job's outputs (virtual-clock figures included) as
  /// commentary; `job_s` is the untraced median, 0 in a traced run.
  virtual void describe(std::ostream& os, double job_s) const = 0;
};

}  // namespace perfbench
