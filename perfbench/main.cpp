// perfbench: host-clock benchmark of the AutoLearn paper pipeline and of
// the simulated serving fleet.
//
//   perfbench --workload <pipeline_paper|fleet_steady>
//             --seed N --seconds S --trace 0|1 [--out DIR]
//
// Each workload is an offline job: a fixed amount of simulated work, run
// as fast as the host allows, repeated until S seconds of jobs have been
// measured; job_s is their median. All timing is taken from outside the
// libraries, around calls to their public functions; calls made inside
// the libraries are intercepted through the wrappers in wrappers.hpp.
// Virtual-clock outputs (simulated rps, queueing, shed counts) are
// checked, never reported as metrics.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced jobs and prints the per-layer split. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
// README.md in this directory has the metric table.
#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cpuid.h>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "fleet_bench.hpp"
#include "pipeline_bench.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEndMetrics[] = {
    {"setup_s", "s"},
    {"job_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Every --trace 1 run prints all of these; a layer that a workload does
// not exercise reads 0 there.
constexpr MetricDef kLayerMetrics[] = {
    {"data.collect_s", "s"},
    {"data.collect_records", "count"},
    {"data.clean_s", "s"},
    {"data.load_s", "s"},
    {"camera.render_calls", "count"},
    {"camera.render_p50_us", "us"},
    {"camera.render_p99_us", "us"},
    {"ml.fit_s", "s"},
    {"ml.fit_samples_per_s", "1/s"},
    {"ml.gemm_flops", "count"},
    {"ml.im2col_elems", "count"},
    {"ml.col2im_elems", "count"},
    {"eval.run_s", "s"},
    {"eval.steps", "count"},
    {"eval.pilot_act_s", "s"},
    {"eval.sim_s", "s"},
    {"ml.predict_batched_calls", "count"},
    {"ml.predict_batched_rows", "count"},
    {"ml.predict_batched_us_per_row", "us"},
    {"ml.predict_batched_p50_us", "us"},
    {"ml.predict_batched_p99_us", "us"},
    {"ml.predict_single_calls", "count"},
    {"ml.predict_single_p50_us", "us"},
    {"ml.predict_single_p99_us", "us"},
    {"ml.predict_gflops", "GFLOP/s"},
    {"serve.run_s", "s"},
    {"serve.other_s", "s"},
    {"serve.other_us_per_req", "us"},
    {"serve.batched_frac", "ratio"},
    {"job.traced_s", "s"},
    {"job.unattributed_s", "s"},
    {"trace.overhead_s", "s"},
};

// Every run measures at least this many jobs, however long they take.
constexpr std::size_t kMinUntracedJobs = 3;
// A traced run keeps adding job pairs past --seconds until each per-call
// pool can carry its p99, but stops here so the run ends in time.
constexpr double kMaxTracedSeconds = 100.0;

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_result(const Outcome& outcome, const MetricDef* begin,
                  const MetricDef* end, const Values& values) {
  for (const std::string& p : outcome.problems) {
    std::cout << "check failed: " << p << "\n";
  }
  std::string line = "{\"correct\": ";
  line += outcome.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(outcome.attempted);
  line += ", \"failed\": " + std::to_string(outcome.failed);
  line += ", \"metrics\": {";
  for (const MetricDef* d = begin; d != end; ++d) {
    const auto it = values.find(d->name);
    if (d != begin) line += ", ";
    line += json_string(d->name) + ": {\"value\": " +
            number(it == values.end() ? 0.0 : it->second) +
            ", \"unit\": " + json_string(d->unit) + "}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

std::string cpu_model() {
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  const std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

void print_provenance(const RunConfig& cfg, std::size_t pool_workers) {
  __builtin_cpu_init();
  std::cout << "provenance: {\"git_describe\": "
            << json_string(PERFBENCH_GIT_DESCRIBE)
            << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
            << ", \"flags\": " << json_string(PERFBENCH_FLAGS)
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"cpu\": " << json_string(cpu_model()) << ", \"avx2\": "
            << (__builtin_cpu_supports("avx2") ? "true" : "false")
            << ", \"fma\": "
            << (__builtin_cpu_supports("fma") ? "true" : "false")
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"ml_pool_workers\": " << pool_workers
            << ", \"parallel_regions\": "
            << (pool_workers <= 1 ? "\"inline\"" : "\"pooled\"")
            << ", \"workload\": " << json_string(cfg.workload)
            << ", \"seed\": " << cfg.seed
            << ", \"trace\": " << (cfg.trace ? "true" : "false") << "}\n";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Values median_of(const std::vector<Values>& samples) {
  std::map<std::string, std::vector<double>> cols;
  for (const Values& s : samples) {
    for (const auto& [k, v] : s) cols[k].push_back(v);
  }
  Values out;
  for (auto& [k, vs] : cols) out[k] = median(vs);
  return out;
}

std::unique_ptr<Bench> make_bench(const RunConfig& cfg) {
  if (cfg.workload == "pipeline_paper") {
    return std::make_unique<PipelineBench>(cfg);
  }
  if (cfg.workload == "fleet_steady") {
    return std::make_unique<FleetBench>(cfg, kFleetSteady);
  }
  return nullptr;
}

/// Untraced jobs until --seconds of job time are measured.
void run_untraced(const RunConfig& cfg, Bench& bench, Outcome& outcome) {
  std::vector<double> setup_s, job_s;
  double spent = 0.0;
  while (job_s.size() < kMinUntracedJobs || spent < cfg.seconds) {
    bench.untraced_job(setup_s, job_s, outcome);
    spent += job_s.back();
  }
  Values values;
  values["setup_s"] = median(setup_s);
  values["job_s"] = median(job_s);
  values["peak_rss_mb"] = peak_rss_mb();
  std::cout << "jobs: " << job_s.size() << ", set-ups: " << setup_s.size()
            << "\n";
  print_summary("job", job_s, "s");
  bench.describe(std::cout, values["job_s"]);
  print_result(outcome, std::begin(kEndToEndMetrics),
               std::end(kEndToEndMetrics), values);
}

/// Untraced/traced job pairs until --seconds are spent and every per-call
/// pool can carry a p99; then the per-layer medians.
void run_traced(const RunConfig& cfg, Bench& bench, Outcome& outcome) {
  HostClock clock;
  Spans spans(clock);
  std::vector<Values> layers;
  CallPools calls;
  std::vector<double> setup_s, untraced_s, traced_s;
  double spent = 0.0;
  while (traced_s.empty() || spent < cfg.seconds ||
         (!bench.enough_calls(calls) && spent < kMaxTracedSeconds)) {
    bench.untraced_job(setup_s, untraced_s, outcome);
    traced_s.push_back(
        bench.traced_job(spans, clock, layers, calls, outcome));
    spent += untraced_s.back() + traced_s.back();
  }
  Values values = median_of(layers);
  values["trace.overhead_s"] = median(traced_s) - median(untraced_s);
  bench.finish_trace(spans, calls, values, outcome);
  std::cout << "job pairs: " << traced_s.size() << ", untraced median "
            << median(untraced_s) << " s, traced median " << median(traced_s)
            << " s\n";
  bench.describe(std::cout, 0.0);
  spans.write(cfg.out / "traces" / (cfg.workload + ".trace.json"));
  print_result(outcome, std::begin(kLayerMetrics), std::end(kLayerMetrics),
               values);
}

int run(const RunConfig& cfg) {
  std::unique_ptr<Bench> bench = make_bench(cfg);
  if (!bench) {
    std::cerr << "perfbench: unknown workload '" << cfg.workload << "'\n";
    return 2;
  }
  // A one-worker pool runs every parallel region inline on the calling
  // thread: the benchmark measures single-core work, which stays steadier
  // on a shared host than cross-thread hand-offs do. Outputs do not depend
  // on the pool size (ml::fit and the compiled plans are thread-invariant).
  autolearn::util::ThreadPool pool(1);
  autolearn::util::ThreadPool::ScopedOverride pool_guard(pool);
  autolearn::util::set_log_level(autolearn::util::LogLevel::Warn);
  print_provenance(cfg, pool.size());

  Outcome outcome;
  // Warm-up job: fills caches and fixes the reference digests that every
  // later job must reproduce. Its times are discarded.
  {
    std::vector<double> setup_s, job_s;
    bench->untraced_job(setup_s, job_s, outcome);
  }
  if (cfg.trace) {
    run_traced(cfg, *bench, outcome);
  } else {
    run_untraced(cfg, *bench, outcome);
  }
  return 0;
}

bool parse(int argc, char** argv, RunConfig& cfg) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = val;
    } else if (key == "--seed") {
      cfg.seed = std::stoull(val);
    } else if (key == "--seconds") {
      cfg.seconds = std::stod(val);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      cfg.trace = val == "1";
    } else if (key == "--out") {
      cfg.out = val;
    } else {
      return false;
    }
  }
  return !cfg.workload.empty() && cfg.seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  try {
    if (!perfbench::parse(argc, argv, cfg)) {
      std::cerr << "usage: perfbench --workload W --seed N --seconds S "
                   "--trace 0|1 [--out DIR]\n";
      return 2;
    }
    return perfbench::run(cfg);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
