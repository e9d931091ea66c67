// fleet_steady: serve::FleetService::run on bench_fleet's stream shape —
// 256 cars, Linear model, batch cap 32 and 5 ms, Cloud placement,
// flops_scale 1500.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "ml/gemm.hpp"
#include "serve/model_registry.hpp"
#include "serve/service.hpp"
#include "util/event_queue.hpp"

namespace perfbench {

namespace al = autolearn;

struct FleetSpec {
  std::size_t shards;
  double mean_interarrival_s;  // per car
  double duration_s;           // virtual arrival window
  // Virtual-clock shape of the workload, checked on every job.
  double min_shed_frac;
  double max_shed_frac;
};

// bench_fleet's chaos "steady" row: ~32k req/s offered to 4 shards, no
// sheds. Cut to 1 s of virtual time so that a run's median is taken over
// dozens of jobs.
constexpr FleetSpec kFleetSteady = {4, 0.008, 1.0, 0.0, 0.0};

inline al::serve::FleetOptions fleet_options(const FleetSpec& spec,
                                             std::uint64_t seed) {
  al::serve::FleetOptions o;
  o.cars = 256;
  o.shards = spec.shards;
  o.duration_s = spec.duration_s;
  o.mean_interarrival_s = spec.mean_interarrival_s;
  o.batcher.max_batch = 32;
  o.batcher.max_delay_s = 0.005;
  o.placement = al::core::Placement::Cloud;
  o.continuum.flops_scale = 1500.0;
  o.seed = seed;
  return o;
}

class FleetBench final : public Bench {
 public:
  FleetBench(const RunConfig& cfg, const FleetSpec& spec)
      : spec_(spec), options_(fleet_options(spec, cfg.seed)) {}

  void untraced_job(std::vector<double>& setup_s, std::vector<double>& job_s,
                    Outcome& outcome) override {
    std::unique_ptr<Job> job = setup(nullptr, setup_s, outcome);
    al::serve::ServeReport report;
    job_s.push_back(time_s([&] { report = job->service->run(); }));
    check(report, outcome);
  }

  double traced_job(Spans& spans, const HostClock& clock,
                    std::vector<Values>& layers, CallPools& calls,
                    Outcome& outcome) override {
    CallLog log(clock.origin, std::size_t{1} << 17);
    std::vector<double> setup_s;
    std::unique_ptr<Job> job = setup(&log, setup_s, outcome);
    al::serve::ServeReport report;
    const al::ml::KernelCounters k0 = al::ml::kernel_counters();
    const double run_s = spans.time("serve.run", "serve", [&] {
      report = job->service->run();
    });
    const al::ml::KernelCounters k1 = al::ml::kernel_counters();
    check(report, outcome);

    // Split the intercepted calls into the batched path and the batch-1
    // shed path. A call of more than one row is a batch. A one-row call is
    // a batch when the report shows a size-1 batch dispatched at that
    // virtual instant, and a shed forward otherwise. Both paths run the
    // same predict_batch(n = 1), so the split only has to get the counts
    // right, and those are checked against the report below.
    std::multiset<double> size1_batches;
    for (const al::serve::ServeRecord& rec : report.records) {
      if (!rec.shed && rec.batch == 1) size1_batches.insert(rec.t_dispatch);
    }
    std::vector<Call> batched, single;
    std::vector<std::size_t> batch_sizes;
    std::size_t batched_rows = 0;
    for (const Call& c : log.calls) {
      bool is_batch = c.rows > 1;
      if (c.rows == 1) {
        const auto it = size1_batches.find(c.virtual_t);
        if (it != size1_batches.end()) {
          size1_batches.erase(it);
          is_batch = true;
        }
      }
      if (is_batch) {
        batched.push_back(c);
        batch_sizes.push_back(c.rows);
        batched_rows += c.rows;
      } else {
        single.push_back(c);
      }
    }
    outcome.require(batch_sizes == report.batch_sizes,
                    "model wrapper saw " + std::to_string(batched.size()) +
                        " batched calls, the report " +
                        std::to_string(report.batches) + " batches");
    outcome.require(batched_rows == report.completed,
                    "model wrapper saw " + std::to_string(batched_rows) +
                        " batched rows, the report " +
                        std::to_string(report.completed) + " completed");
    outcome.require(single.size() == report.shed,
                    "model wrapper saw " + std::to_string(single.size()) +
                        " batch-1 calls, the report " +
                        std::to_string(report.shed) + " sheds");
    spans.add_calls("ml.predict_batched", "ml", batched);
    spans.add_calls("ml.predict_single", "ml", single);
    append_micros(batched, calls["ml.predict_batched"]);
    append_micros(single, calls["ml.predict_single"]);

    double batched_s = 0.0, single_s = 0.0;
    for (const Call& c : batched) batched_s += c.seconds();
    for (const Call& c : single) single_s += c.seconds();
    const double predict_s = batched_s + single_s;
    const double rows = static_cast<double>(batched_rows + single.size());
    const double requests = static_cast<double>(report.requests);
    Values v;
    v["ml.predict_batched_calls"] = static_cast<double>(batched.size());
    v["ml.predict_batched_rows"] = static_cast<double>(batched_rows);
    v["ml.predict_batched_us_per_row"] =
        batched_rows ? batched_s * 1e6 / static_cast<double>(batched_rows)
                     : 0.0;
    v["ml.predict_single_calls"] = static_cast<double>(single.size());
    // Computed from the model's own flop count, not measured by counters.
    v["ml.predict_gflops"] =
        static_cast<double>(job->model->flops_per_sample()) * rows /
        predict_s / 1e9;
    v["ml.gemm_flops"] = static_cast<double>(k1.gemm_flops - k0.gemm_flops);
    v["ml.im2col_elems"] =
        static_cast<double>(k1.im2col_elems - k0.im2col_elems);
    v["ml.col2im_elems"] =
        static_cast<double>(k1.col2im_elems - k0.col2im_elems);
    v["serve.run_s"] = run_s;
    v["serve.other_s"] = run_s - predict_s;
    v["serve.other_us_per_req"] = (run_s - predict_s) * 1e6 / requests;
    v["serve.batched_frac"] = static_cast<double>(report.completed) / requests;
    v["job.traced_s"] = run_s;
    v["job.unattributed_s"] = 0.0;  // serve.other_s is the whole remainder
    layers.push_back(std::move(v));
    return run_s;
  }

  bool enough_calls(const CallPools& calls) const override {
    for (const char* pool : {"ml.predict_batched", "ml.predict_single"}) {
      const auto it = calls.find(pool);
      const std::size_t n = it == calls.end() ? 0 : it->second.size();
      if (n != 0 && n < kP99Samples) return false;
    }
    return true;
  }

  void finish_trace(Spans& /*spans*/, const CallPools& calls, Values& values,
                    Outcome& outcome) override {
    for (const std::string pool : {"ml.predict_batched", "ml.predict_single"}) {
      const auto it = calls.find(pool);
      const std::vector<double> none;
      const std::vector<double>& us = it == calls.end() ? none : it->second;
      values[pool + "_p50_us"] = median(us);
      values[pool + "_p99_us"] = p99_us(us, pool, outcome);
      if (!us.empty()) print_summary(pool, us);
    }
  }

  void describe(std::ostream& os, double job_s) const override {
    os << "fleet: " << last_.requests << " requests, " << last_.shed
       << " shed, " << last_.batches << " batches; virtual clock "
       << last_.throughput_rps << " rps (a check, not a metric)\n";
    if (job_s > 0.0) {
      os << "sim_req_per_s: " << static_cast<double>(last_.requests) / job_s
         << " simulated requests per host second\n";
    }
  }

 private:
  /// One job's objects; FleetService keeps references to the others.
  struct Job {
    al::util::EventQueue queue;
    al::serve::ModelRegistry registry;
    std::shared_ptr<al::ml::DrivingModel> model;  // as published
    std::unique_ptr<al::serve::FleetService> service;
  };

  /// Set-up: model build, registry publish, and FleetService construction
  /// (which compiles the model's plan for the batch cap). With a log, the
  /// published model is the timing wrapper around the real one.
  std::unique_ptr<Job> setup(CallLog* log, std::vector<double>& setup_s,
                             Outcome& outcome) {
    auto job = std::make_unique<Job>();
    setup_s.push_back(time_s([&] {
      std::shared_ptr<al::ml::DrivingModel> model =
          al::ml::make_model(al::ml::ModelType::Linear);
      if (log) model = std::make_shared<TimedModel>(model, job->queue, *log);
      job->model = model;
      job->registry.publish(model, "perfbench");
      job->service = std::make_unique<al::serve::FleetService>(
          job->queue, job->registry, options_);
    }));
    if constexpr (kModelExposesPlan) {
      outcome.require(job->model->plan() != nullptr,
                      "fleet model serves without a compiled plan");
      if (log) {
        auto& timed = static_cast<TimedModel&>(*job->model);
        outcome.require(timed.inner().plan() != nullptr,
                        "wrapped fleet model serves without a compiled plan");
      }
    }
    return job;
  }

  static std::uint64_t digest(const al::serve::ServeReport& r) {
    std::uint64_t h = kFnvBasis;
    h = fnv(h, r.requests);
    h = fnv(h, r.completed);
    h = fnv(h, r.shed);
    for (std::size_t b : r.batch_sizes) h = fnv(h, b);
    for (const al::serve::ServeRecord& rec : r.records) {
      h = fnv(h, rec.id);
      h = fnv(h, rec.shed);
      h = fnv(h, rec.batch);
      h = fnv(h, rec.prediction.steering);
      h = fnv(h, rec.prediction.throttle);
    }
    return h;
  }

  /// Each request is one operation; it fails when it is neither completed
  /// nor shed, or when its job's digest differs from the run's first job.
  void check(const al::serve::ServeReport& r, Outcome& outcome) {
    const std::uint64_t d = digest(r);
    if (!reference_) reference_ = d;
    const std::size_t served = r.completed + r.shed;
    if (d != *reference_) {
      outcome.add(r.requests, r.requests,
                  "fleet report differs between repeats of one seed");
    } else {
      outcome.add(r.requests, r.requests > served ? r.requests - served : 0,
                  "requests neither completed nor shed");
    }
    const double shed_frac =
        r.requests ? static_cast<double>(r.shed) / r.requests : 0.0;
    outcome.require(r.requests > 0 && shed_frac >= spec_.min_shed_frac &&
                        shed_frac <= spec_.max_shed_frac,
                    "shed share " + std::to_string(shed_frac) +
                        " outside the workload's range");
    last_ = Last{r.requests, r.shed, r.batches, r.throughput_rps};
  }

  struct Last {
    std::size_t requests = 0, shed = 0, batches = 0;
    double throughput_rps = 0.0;
  };

  FleetSpec spec_;
  al::serve::FleetOptions options_;
  std::optional<std::uint64_t> reference_;
  Last last_;
};

}  // namespace perfbench
