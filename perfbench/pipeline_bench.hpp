// pipeline_paper: the examples/quickstart configuration through
// core::Pipeline::run — paper oval, sample data path, 120 s collect with
// steering noise 0.08, Inferred model, 8 epochs, V100 pricing, 60 s
// closed-loop evaluation.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "camera/camera.hpp"
#include "common.hpp"
#include "core/pipeline.hpp"
#include "data/dataset.hpp"
#include "eval/pilot.hpp"
#include "ml/gemm.hpp"
#include "track/track.hpp"

namespace perfbench {

namespace al = autolearn;

inline al::core::PipelineOptions paper_options(std::uint64_t seed) {
  al::core::PipelineOptions o;
  o.data_path = al::data::DataPath::Sample;
  o.collect_duration_s = 120.0;
  o.driver.steering_noise = 0.08;
  o.model = al::ml::ModelType::Inferred;
  o.train.epochs = 8;
  o.gpu_device = "V100";
  o.eval.duration_s = 60.0;
  o.seed = seed;
  return o;
}

class PipelineBench final : public Bench {
 public:
  explicit PipelineBench(const RunConfig& cfg)
      : seed_(cfg.seed), options_(paper_options(cfg.seed)),
        workdir_(cfg.out / "work" / "pipeline_paper") {}

  /// Set-up is the track build plus Pipeline construction, repeated so
  /// its median is steady; the job is Pipeline::run.
  void untraced_job(std::vector<double>& setup_s, std::vector<double>& job_s,
                    Outcome& outcome) override {
    clear_tub();
    std::unique_ptr<al::track::Track> track;
    std::unique_ptr<al::core::Pipeline> pipeline;
    for (std::size_t i = 0; i < kSetupRepeats; ++i) {
      setup_s.push_back(time_s([&] {
        track = std::make_unique<al::track::Track>(
            al::track::Track::paper_oval());
        pipeline =
            std::make_unique<al::core::Pipeline>(*track, options_, workdir_);
      }));
    }
    al::core::PipelineReport report;
    job_s.push_back(time_s([&] { report = pipeline->run(); }));
    check(report, outcome);
  }

  /// The same job with each stage called through its own public function
  /// and timed; the stage sequence mirrors core::Pipeline::run, and the
  /// report digests must equal the untraced ones.
  double traced_job(Spans& spans, const HostClock& clock,
                    std::vector<Values>& layers, CallPools& calls,
                    Outcome& outcome) override {
    clear_tub();
    const al::track::Track track = al::track::Track::paper_oval();
    const fs::path tub_dir = workdir_ / "tub";
    al::core::PipelineReport report;
    Values v;
    CallLog acts(clock.origin, 2048);
    const double t_begin = clock.now();

    al::data::CollectOptions copt;
    copt.duration_s = options_.collect_duration_s;
    copt.seed = options_.seed;
    copt.expert = options_.driver;
    copt.img_w = options_.model_config.img_w;
    copt.img_h = options_.model_config.img_h;
    v["data.collect_s"] = spans.time("data.collect", "data", [&] {
      report.collect = al::data::collect_session(track, options_.data_path,
                                                 copt, tub_dir);
    });
    v["data.collect_records"] = static_cast<double>(report.collect.records);

    al::data::Tub tub(tub_dir);
    v["data.clean_s"] = spans.time("data.clean", "data", [&] {
      if (options_.clean) report.clean = al::data::review_clean(tub);
    });

    std::vector<al::ml::Sample> train, val;
    v["data.load_s"] = spans.time("data.load", "data", [&] {
      al::data::DatasetOptions dopt;
      dopt.seq_len = options_.model_config.seq_len;
      dopt.history_len = options_.model_config.history_len;
      auto samples = al::data::build_samples(tub.read_all(), dopt);
      std::tie(train, val) = al::data::split_train_val(
          std::move(samples), 0.15, options_.seed + 7);
    });
    report.train_samples = train.size();
    report.val_samples = val.size();

    std::unique_ptr<al::ml::DrivingModel> model =
        al::ml::make_model(options_.model, options_.model_config);
    const al::ml::KernelCounters k0 = al::ml::kernel_counters();
    v["ml.fit_s"] = spans.time("ml.fit", "ml", [&] {
      report.train_result = al::ml::fit(*model, train, val, options_.train);
    });
    const al::ml::KernelCounters k1 = al::ml::kernel_counters();
    v["ml.fit_samples_per_s"] =
        static_cast<double>(report.train_result.samples_seen) /
        v["ml.fit_s"];
    v["ml.gemm_flops"] = static_cast<double>(k1.gemm_flops - k0.gemm_flops);
    v["ml.im2col_elems"] =
        static_cast<double>(k1.im2col_elems - k0.im2col_elems);
    v["ml.col2im_elems"] =
        static_cast<double>(k1.col2im_elems - k0.col2im_elems);
    report.steering_mae = al::ml::steering_mae(*model, val);

    al::eval::ModelPilot model_pilot(*model);
    TimedPilot pilot(model_pilot, acts);
    v["eval.run_s"] = spans.time("eval.run", "eval", [&] {
      report.eval_result =
          al::eval::run_evaluation(track, pilot, options_.eval);
    });
    const double t_end = clock.now();

    double act_s = 0.0;
    for (const Call& c : acts.calls) act_s += c.seconds();
    v["eval.steps"] = static_cast<double>(report.eval_result.steps);
    v["eval.pilot_act_s"] = act_s;
    v["eval.sim_s"] = v["eval.run_s"] - act_s;
    v["job.traced_s"] = t_end - t_begin;
    // Model build, validation MAE and the GPU-time estimate.
    v["job.unattributed_s"] = v["job.traced_s"] - v["data.collect_s"] -
                              v["data.clean_s"] - v["data.load_s"] -
                              v["ml.fit_s"] - v["eval.run_s"];
    spans.add_calls("eval.pilot_act", "eval", acts.calls);
    append_micros(acts.calls, calls["eval.pilot_act"]);
    layers.push_back(std::move(v));

    outcome.require(acts.calls.size() == report.eval_result.steps,
                    "pilot wrapper saw " + std::to_string(acts.calls.size()) +
                        " act() calls for " +
                        std::to_string(report.eval_result.steps) + " steps");
    check(report, outcome);
    return t_end - t_begin;
  }

  /// Camera::render over a fixed sequence of consecutive poses along one
  /// lap, timed per frame after a first pass that warms the caches.
  void finish_trace(Spans& spans, const CallPools& calls, Values& values,
                    Outcome& outcome) override {
    print_summary("eval.pilot_act", calls.at("eval.pilot_act"));
    const al::track::Track track = al::track::Track::paper_oval();
    al::camera::CameraConfig cfg;
    cfg.width = options_.model_config.img_w;
    cfg.height = options_.model_config.img_h;
    al::camera::Camera cam(cfg, al::util::Rng(seed_));
    std::vector<al::vehicle::CarState> poses(kCameraPoses);
    for (std::size_t i = 0; i < kCameraPoses; ++i) {
      const double s = track.length() * static_cast<double>(i) /
                       static_cast<double>(kCameraPoses);
      poses[i].pos = track.position_at(s);
      poses[i].heading = track.heading_at(s);
      poses[i].speed = 1.0;
    }
    std::uint64_t sums[2] = {kFnvBasis, kFnvBasis};
    std::vector<double> us;
    us.reserve(kCameraPoses);
    spans.time("camera.laps", "camera", [&] {
      for (int pass = 0; pass < 2; ++pass) {
        for (const al::vehicle::CarState& pose : poses) {
          const Clock::time_point a = Clock::now();
          const al::camera::Image frame = cam.render(track, pose);
          const Clock::time_point b = Clock::now();
          if (pass == 1) us.push_back(seconds_since(a, b) * 1e6);
          sums[pass] = fnv(sums[pass], frame.pixels().data(),
                           frame.pixels().size() * sizeof(float));
        }
      }
    });
    outcome.require(sums[0] == sums[1],
                    "camera frames differ between two passes of one lap");
    values["camera.render_calls"] = static_cast<double>(us.size());
    values["camera.render_p50_us"] = median(us);
    values["camera.render_p99_us"] = p99_us(us, "camera.render", outcome);
    print_summary("camera.render", us);
  }

  void describe(std::ostream& os, double /*job_s*/) const override {
    os << "pipeline: " << last_.collect.records << " records, steering MAE "
       << last_.steering_mae << ", " << last_.eval_result.laps << " laps, "
       << last_.eval_result.errors << " closed-loop errors\n";
  }

 private:
  // Output floors, checked on every job. Seeds 1-26 give a steering MAE
  // of 0.065-0.072 and 10.6-10.8 laps with no off-track error.
  static constexpr double kMaxSteeringMae = 0.12;
  static constexpr double kMinLaps = 9.0;
  static constexpr std::size_t kMaxEvalErrors = 0;
  static constexpr std::size_t kSetupRepeats = 8;
  static constexpr std::size_t kCameraPoses = 1200;

  struct StageDigests {
    std::uint64_t collect = kFnvBasis, clean = kFnvBasis, train = kFnvBasis,
                  eval = kFnvBasis;
  };

  static StageDigests digest(const al::core::PipelineReport& r) {
    StageDigests d;
    d.collect = fnv(d.collect, r.collect.records);
    d.collect = fnv(d.collect, r.collect.mistake_records);
    d.collect = fnv(d.collect, r.collect.distance_m);
    d.clean = fnv(d.clean, r.clean.reviewed);
    d.clean = fnv(d.clean, r.clean.deleted);
    d.clean = fnv(d.clean, r.clean.segments);
    d.train = fnv(d.train, r.train_samples);
    d.train = fnv(d.train, r.val_samples);
    d.train = fnv(d.train, r.train_result.best_val_loss);
    d.train = fnv(d.train, r.train_result.final_train_loss);
    d.train = fnv(d.train, r.steering_mae);
    d.eval = fnv(d.eval, r.eval_result.distance_m);
    d.eval = fnv(d.eval, r.eval_result.errors);
    d.eval = fnv(d.eval, r.eval_result.steps);
    for (double lap : r.eval_result.lap_times) d.eval = fnv(d.eval, lap);
    return d;
  }

  void clear_tub() { fs::remove_all(workdir_ / "tub"); }

  /// Each stage (collect, clean, train, eval) is one operation; it fails
  /// when its output is off or differs from the run's first job.
  void check(const al::core::PipelineReport& r, Outcome& outcome) {
    const StageDigests d = digest(r);
    if (!reference_) reference_ = d;
    const auto expected_records = static_cast<std::size_t>(
        options_.collect_duration_s / al::data::CollectOptions{}.dt);
    const auto expected_steps = static_cast<std::size_t>(
        options_.eval.duration_s / options_.eval.dt);
    auto stage = [&](bool ok, const std::string& what) {
      outcome.add(1, ok ? 0 : 1, what);
    };
    stage(r.collect.records == expected_records &&
              d.collect == reference_->collect,
          "collect: " + std::to_string(r.collect.records) + " records for " +
              std::to_string(expected_records) + " expected, or a repeat "
              "differs");
    stage(r.clean.reviewed == r.collect.records &&
              r.clean.deleted < r.collect.records &&
              d.clean == reference_->clean,
          "clean: review counts off, or a repeat differs");
    stage(r.train_samples > 0 && r.steering_mae <= kMaxSteeringMae &&
              d.train == reference_->train,
          "train: steering MAE " + std::to_string(r.steering_mae) +
              " above " + std::to_string(kMaxSteeringMae) +
              ", or a repeat differs");
    stage(r.eval_result.steps == expected_steps &&
              r.eval_result.laps >= kMinLaps &&
              r.eval_result.errors <= kMaxEvalErrors &&
              d.eval == reference_->eval,
          "eval: " + std::to_string(r.eval_result.laps) + " laps, " +
              std::to_string(r.eval_result.errors) +
              " errors outside the floors, or a repeat differs");
    last_ = r;
  }

  std::uint64_t seed_;
  al::core::PipelineOptions options_;
  fs::path workdir_;
  std::optional<StageDigests> reference_;
  al::core::PipelineReport last_;
};

}  // namespace perfbench
