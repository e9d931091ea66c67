// Timing wrappers around two public extension points of the libraries:
// a DrivingModel published to a serve::ModelRegistry, and an eval::Pilot
// handed to eval::run_evaluation. Each forwards every virtual to the
// wrapped object and records the host time of the calls it is measuring
// into a preallocated in-memory log, so the program's own code stays
// untouched and the per-call cost of recording is two clock reads.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "eval/pilot.hpp"
#include "ml/driving_model.hpp"
#include "util/event_queue.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double>(t - origin).count();
}

/// One intercepted call: host start/end (seconds since the log's origin),
/// batch rows, and the virtual time it happened at (fleet runs only).
struct Call {
  double begin = 0.0;
  double end = 0.0;
  std::size_t rows = 0;
  double virtual_t = 0.0;
  double seconds() const { return end - begin; }
};

struct CallLog {
  explicit CallLog(Clock::time_point origin_, std::size_t reserve = 0)
      : origin(origin_) {
    calls.reserve(reserve);
  }
  Clock::time_point origin;
  std::vector<Call> calls;
};

// The plan knobs (attach_plan / detach_plan / plan) are forwarded only
// while ml::DrivingModel declares them; without them the wrapper still
// compiles and the model keeps whatever plan handling it does internally.
namespace detail {

template <class M>
bool attach_plan(M& model, std::size_t max_batch) {
  if constexpr (requires { model.attach_plan(max_batch); }) {
    return model.attach_plan(max_batch);
  } else {
    return false;
  }
}

template <class M>
void detach_plan(M& model) {
  if constexpr (requires { model.detach_plan(); }) model.detach_plan();
}

template <class M>
struct PlanPtr {
  using type = void*;
};
template <class M>
  requires requires(M& m) { m.plan(); }
struct PlanPtr<M> {
  using type = decltype(std::declval<M&>().plan());
};

template <class M>
typename PlanPtr<M>::type plan(M& model) {
  if constexpr (requires { model.plan(); }) {
    return model.plan();
  } else {
    return nullptr;
  }
}

}  // namespace detail

/// True when the interface exposes a compiled plan to inspect.
inline constexpr bool kModelExposesPlan =
    requires(autolearn::ml::DrivingModel& m) { m.plan(); };

/// Forwards every DrivingModel virtual to `inner`; predict and
/// predict_batch calls are timed into `log`, stamped with the fleet's
/// virtual clock.
class TimedModel final : public autolearn::ml::DrivingModel {
 public:
  TimedModel(std::shared_ptr<autolearn::ml::DrivingModel> inner,
             const autolearn::util::EventQueue& queue, CallLog& log)
      : inner_(std::move(inner)), queue_(queue), log_(log) {}

  autolearn::ml::DrivingModel& inner() { return *inner_; }

  autolearn::ml::ModelType type() const override { return inner_->type(); }
  std::size_t seq_len() const override { return inner_->seq_len(); }
  std::size_t history_len() const override { return inner_->history_len(); }

  autolearn::ml::Prediction predict(
      const autolearn::ml::Sample& obs) override {
    const Clock::time_point t0 = Clock::now();
    const autolearn::ml::Prediction out = inner_->predict(obs);
    record(t0, 1);
    return out;
  }

  void predict_batch(const autolearn::ml::Sample* obs, std::size_t n,
                     autolearn::ml::Prediction* out) override {
    const Clock::time_point t0 = Clock::now();
    inner_->predict_batch(obs, n, out);
    record(t0, n);
  }

  double train_batch(
      const std::vector<const autolearn::ml::Sample*>& batch) override {
    return inner_->train_batch(batch);
  }
  double eval_batch(
      const std::vector<const autolearn::ml::Sample*>& batch) override {
    return inner_->eval_batch(batch);
  }
  std::size_t num_parameters() override { return inner_->num_parameters(); }
  std::uint64_t flops_per_sample() const override {
    return inner_->flops_per_sample();
  }
  void save(std::ostream& os) override { inner_->save(os); }
  void load(std::istream& is) override { inner_->load(is); }
  autolearn::ml::Precision precision() const override {
    return inner_->precision();
  }
  std::vector<autolearn::ml::Sequential*> mutable_nets() override {
    return inner_->mutable_nets();
  }
  void save_full(std::ostream& os) override { inner_->save_full(os); }
  void load_full(std::istream& is) override { inner_->load_full(is); }

  // Override the plan knobs while the base declares them (see detail::).
  bool attach_plan(std::size_t max_batch) {
    return detail::attach_plan(*inner_, max_batch);
  }
  void detach_plan() { detail::detach_plan(*inner_); }
  detail::PlanPtr<autolearn::ml::DrivingModel>::type plan() {
    return detail::plan(*inner_);
  }

 private:
  void record(Clock::time_point t0, std::size_t rows) {
    const Clock::time_point t1 = Clock::now();
    log_.calls.push_back({seconds_since(log_.origin, t0),
                          seconds_since(log_.origin, t1), rows,
                          queue_.now()});
  }

  std::shared_ptr<autolearn::ml::DrivingModel> inner_;
  const autolearn::util::EventQueue& queue_;
  CallLog& log_;
};

/// Forwards every Pilot virtual to `inner`; act() calls are timed into
/// `log`.
class TimedPilot final : public autolearn::eval::Pilot {
 public:
  TimedPilot(autolearn::eval::Pilot& inner, CallLog& log)
      : inner_(inner), log_(log) {}

  autolearn::vehicle::DriveCommand act(
      const autolearn::camera::Image& frame) override {
    const Clock::time_point t0 = Clock::now();
    const autolearn::vehicle::DriveCommand cmd = inner_.act(frame);
    const Clock::time_point t1 = Clock::now();
    log_.calls.push_back({seconds_since(log_.origin, t0),
                          seconds_since(log_.origin, t1), 1, 0.0});
    return cmd;
  }
  void reset() override { inner_.reset(); }
  std::string name() const override { return inner_.name(); }

 private:
  autolearn::eval::Pilot& inner_;
  CallLog& log_;
};

}  // namespace perfbench
