#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "gpu/perf_model.hpp"
#include "serve/errors.hpp"
#include "testbed/topology.hpp"

namespace autolearn::serve {
namespace {

/// Latency pricing must follow the published model's arithmetic: an int8
/// variant in the registry is billed at the device's int8 throughput.
gpu::Precision pricing_precision(const ml::DrivingModel& model) {
  return model.precision() == ml::Precision::Int8 ? gpu::Precision::Int8
                                                  : gpu::Precision::Fp32;
}

double p99(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = 0.99 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(idx));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

}  // namespace

void FleetOptions::check(ConfigIssues& out) const {
  if (cars == 0) out.emplace_back("fleet.cars", "must be >= 1");
  if (duration_s <= 0.0) {
    out.emplace_back("fleet.duration_s", "must be > 0");
  }
  if (mean_interarrival_s <= 0.0) {
    out.emplace_back("fleet.mean_interarrival_s", "must be > 0");
  }
  if (queue_budget == 0) {
    out.emplace_back("fleet.queue_budget", "must be >= 1");
  }
  if (img_w == 0 || img_h == 0) {
    out.emplace_back("fleet.img", "zero image dimension");
  }
  if (shards == 0) out.emplace_back("fleet.shards", "must be >= 1");
  if (ring_replicas == 0) {
    out.emplace_back("fleet.ring_replicas", "must be >= 1");
  }
  for (const std::string& site : sites) {
    if (site.empty()) {
      out.emplace_back("fleet.sites", "empty site name");
      break;
    }
  }
  // Full load-spike sweep at construction time: a NaN window or a
  // non-positive factor used to sail through here and only blow up when
  // run() scheduled the spike / set_load_factor rejected it mid-run.
  // Paths are indexed so a config with several spikes names the culprit.
  for (std::size_t i = 0; i < load_spikes.size(); ++i) {
    const LoadSpike& spike = load_spikes[i];
    const std::string path =
        "fleet.load_spikes[" + std::to_string(i) + "].";
    if (!std::isfinite(spike.at) || spike.at < 0.0) {
      out.emplace_back(path + "at", "must be finite and >= 0");
    }
    if (!std::isfinite(spike.duration) || spike.duration < 0.0) {
      out.emplace_back(path + "duration", "must be finite and >= 0");
    }
    if (!std::isfinite(spike.factor) || spike.factor <= 0.0) {
      out.emplace_back(path + "factor", "must be finite and > 0");
    }
    if (std::isfinite(spike.at) && std::isfinite(spike.duration) &&
        spike.duration > 0.0 && spike.at + spike.duration <= spike.at) {
      // Inverted/degenerate window: the restore-to-1 event would be
      // scheduled at or before the spike itself.
      out.emplace_back(path + "duration", "window ends before it starts");
    }
  }
  if (autoscaler.enabled && shards != 0 &&
      (shards < autoscaler.min_shards || shards > autoscaler.max_shards)) {
    out.emplace_back("fleet.shards",
                     "starting shard count outside the autoscaler clamp [" +
                         std::to_string(autoscaler.min_shards) + ", " +
                         std::to_string(autoscaler.max_shards) + "]");
  }
  health.check(out);
  batcher.check(out);
  autoscaler.check(out);
}

FleetService::FleetService(util::EventQueue& queue, ModelRegistry& registry,
                           FleetOptions options)
    : queue_(queue), options_(std::move(options)) {
  require_valid(options_);
  base_registry_ = &registry;
  // Unreplicated mode: every shard reads the same registry.
  init(std::vector<ModelRegistry*>(options_.shards, &registry));
}

FleetService::FleetService(util::EventQueue& queue,
                           ReplicatedRegistry& registry, FleetOptions options)
    : queue_(queue), options_(std::move(options)) {
  require_valid(options_);
  if (registry.shards() < options_.shards) {
    throw ConfigError("fleet.shards",
                      "replicated registry has " +
                          std::to_string(registry.shards()) +
                          " replicas, options ask for " +
                          std::to_string(options_.shards));
  }
  replicated_ = &registry;
  std::vector<ModelRegistry*> registries;
  registries.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    registries.push_back(&registry.shard(i));
  }
  init(std::move(registries));
}

void FleetService::init(std::vector<ModelRegistry*> registries) {
  ShardRouterConfig rcfg;
  rcfg.shards = options_.shards;
  rcfg.replicas = options_.ring_replicas;
  rcfg.salt = hash_mix(options_.seed);
  router_ = ShardRouter(rcfg);

  rng_ = util::Rng(options_.seed);
  car_rng_.reserve(options_.cars);
  for (std::size_t i = 0; i < options_.cars; ++i) {
    car_rng_.push_back(rng_.split());
  }

  sites_ = options_.sites.empty()
               ? testbed::shard_sites(std::max(
                     options_.shards, options_.autoscaler.enabled
                                          ? options_.autoscaler.max_shards
                                          : options_.shards))
               : options_.sites;

  shards_.resize(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    Shard& shard = shards_[s];
    shard.site = sites_[s % sites_.size()];
    shard.registry = registries[s];
    shard.batcher = std::make_unique<DynamicBatcher>(options_.batcher);
    shard.breaker =
        std::make_unique<fault::CircuitBreaker>(options_.continuum.breaker);
    shard.jitter_rng = rng_.split();
    wire_breaker(s);
  }
  active_shards_ = options_.shards;

  obs::Tracer* tracer = options_.continuum.tracer;
  obs::MetricsRegistry* metrics = options_.continuum.metrics;
  if (options_.site_probe) {
    health_ = std::make_unique<HealthMonitor>(queue_, options_.health);
    for (const Shard& shard : shards_) health_->add_shard(shard.site);
    health_->set_probe(options_.site_probe);
    health_->set_on_down([this](std::size_t s) { on_shard_down(s); });
    health_->set_on_up([this](std::size_t s) { on_shard_up(s); });
    health_->instrument(tracer, metrics);
  }

  if (options_.autoscaler.enabled) {
    scaler_ = std::make_unique<AutoScaler>(queue_, options_.autoscaler);
    scaler_->set_sampler([this](double now) { return sample_signals(now); });
    scaler_->set_resizer(
        [this](std::size_t target, double, const std::string& reason) {
          return resize(target, reason);
        });
    scaler_->instrument(tracer, metrics);
  }

  report_.shards = options_.shards;
  report_.initial_shards = options_.shards;
  report_.final_shards = options_.shards;
  report_.shed_by_car.assign(options_.cars, 0);
  report_.failover_by_shard.assign(options_.shards, 0);
  report_.shard_stats.resize(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    report_.shard_stats[s].site = shards_[s].site;
  }
}

void FleetService::wire_breaker(std::size_t s) {
  obs::Tracer* tracer = options_.continuum.tracer;
  obs::MetricsRegistry* metrics = options_.continuum.metrics;
  shards_[s].breaker->set_on_transition([this, s, tracer, metrics](
                                            fault::CircuitBreaker::State from,
                                            fault::CircuitBreaker::State to,
                                            double now) {
    if (to == fault::CircuitBreaker::State::Closed) {
      shards_[s].awaiting_recovery = true;
    }
    if (tracer) {
      util::Json args = util::Json::object();
      args.set("from", util::Json(fault::to_string(from)));
      args.set("to", util::Json(fault::to_string(to)));
      args.set("t", util::Json(now));
      args.set("shard", util::Json(s));
      tracer->instant("fault.breaker", "fault", std::move(args));
    }
    if (metrics) {
      metrics->counter("fault.breaker.transitions").inc();
      metrics
          ->counter(std::string("fault.breaker.to_") + fault::to_string(to))
          .inc();
    }
  });
}

const fault::CircuitBreaker& FleetService::breaker(std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw std::out_of_range("FleetService::breaker: bad shard index");
  }
  return *shards_[shard].breaker;
}

ServeReport FleetService::run() {
  if (ran_) throw std::logic_error("FleetService::run: call once");
  ran_ = true;
  for (const Shard& shard : shards_) {
    if (shard.registry->empty()) {
      throw std::logic_error("FleetService::run: no model published");
    }
  }

  if (health_) health_->start(options_.duration_s);
  if (scaler_) scaler_->start(options_.duration_s);
  for (const LoadSpike& spike : options_.load_spikes) {
    queue_.schedule_at(spike.at,
                       [this, spike] { set_load_factor(spike.factor); });
    if (spike.duration > 0.0) {
      queue_.schedule_at(spike.at + spike.duration,
                         [this] { set_load_factor(1.0); });
    }
  }
  for (std::size_t car = 0; car < options_.cars; ++car) {
    schedule_arrival(car);
  }
  queue_.run_until(options_.duration_s);

  // Arrival window closed: force-flush whatever the batchers still hold
  // (partial batches included) and drain in-flight work.
  draining_ = true;
  for (std::size_t s = 0; s < shards_.size(); ++s) try_dispatch(s);
  queue_.run();

  const double makespan = queue_.now();
  report_.duration_s = makespan;
  report_.throughput_rps =
      makespan > 0.0 ? static_cast<double>(report_.completed) / makespan : 0.0;
  std::size_t cloud_requests = 0;
  std::size_t denied_batches = 0;
  std::size_t failovers = 0;
  double degraded_s = 0.0;
  double recovery_s = 0.0;
  for (const Shard& shard : shards_) {
    cloud_requests += shard.cloud_requests;
    denied_batches += shard.denied_batches;
    failovers += shard.breaker->times_opened();
    degraded_s += shard.breaker->degraded_s(makespan);
    recovery_s += shard.recovery_latency_s;
  }
  report_.degradation.cloud_usage =
      report_.records.empty()
          ? 0.0
          : static_cast<double>(cloud_requests) /
                static_cast<double>(report_.records.size());
  report_.degradation.failovers = failovers;
  report_.degradation.denied_calls = denied_batches;
  report_.degradation.degraded_time_s = degraded_s;
  report_.degradation.recovery_latency_s = recovery_s;
  if (health_) {
    report_.shard_downs = health_->downs();
    report_.shard_ups = health_->ups();
  }
  report_.shards = shards_.size();  // peak slots over the run
  report_.final_shards = active_shards_;
  set_queue_gauge(0);
  return report_;
}

void FleetService::set_load_factor(double factor) {
  if (factor <= 0.0 || !std::isfinite(factor)) {
    throw std::invalid_argument(
        "FleetService::set_load_factor: factor must be finite and > 0");
  }
  load_factor_ = factor;
  if (obs::MetricsRegistry* metrics = options_.continuum.metrics) {
    metrics->gauge("serve.load_factor").set(factor);
  }
}

ScaleSignals FleetService::sample_signals(double now) {
  ScaleSignals s;
  s.active_shards = active_shards_;
  std::size_t live = 0;
  std::size_t busy = 0;
  double queue_sum = 0.0;
  for (std::size_t i = 0; i < active_shards_; ++i) {
    if (!router_.alive(i)) continue;
    ++live;
    if (shards_[i].busy) ++busy;
    const double depth = static_cast<double>(shards_[i].batcher->pending());
    queue_sum += depth;
    s.max_queue_depth = std::max(s.max_queue_depth, depth);
  }
  s.live_shards = live;
  s.mean_queue_depth = live > 0 ? queue_sum / static_cast<double>(live) : 0.0;
  s.queue_budget = static_cast<double>(options_.queue_budget);
  s.p99_s = p99(std::move(window_queued_));
  s.shed_rate = window_arrivals_ > 0
                    ? static_cast<double>(window_sheds_) /
                          static_cast<double>(window_arrivals_)
                    : 0.0;
  s.utilization = live > 0
                      ? static_cast<double>(busy) / static_cast<double>(live)
                      : 0.0;
  s.arrivals = window_arrivals_;
  window_queued_.clear();
  window_sheds_ = 0;
  window_arrivals_ = 0;
  (void)now;
  return s;
}

void FleetService::admit_shard(std::size_t s, double now) {
  const bool fresh = s >= shards_.size();
  if (fresh) {
    shards_.emplace_back();
    Shard& shard = shards_.back();
    shard.site = sites_[s % sites_.size()];
    shard.batcher = std::make_unique<DynamicBatcher>(options_.batcher);
    shard.breaker =
        std::make_unique<fault::CircuitBreaker>(options_.continuum.breaker);
    shard.jitter_rng = rng_.split();
    wire_breaker(s);
    report_.failover_by_shard.push_back(0);
    report_.shard_stats.emplace_back();
    report_.shard_stats[s].site = shard.site;
  }
  Shard& shard = shards_[s];
  shard.retired = false;
  report_.shard_stats[s].admitted_at = now;
  report_.shard_stats[s].retired_at = -1.0;

  // Level the model BEFORE the shard can attract traffic: the newcomer
  // serves the incumbent snapshot — compiled plan included — from its
  // first batch.
  if (replicated_) {
    if (s < replicated_->shards()) {
      replicated_->level_replica(s);
    } else if (replicated_->add_replica() != s) {
      throw std::logic_error("FleetService::admit_shard: replica index skew");
    }
    shard.registry = &replicated_->shard(s);
  } else {
    shard.registry = base_registry_;
  }

  // A shard scaled onto a still-dark site joins DEAD: it must not attract
  // cars for a sweep interval while its heartbeats are already missing.
  const bool alive_now = health_ ? site_reachable(s, now) : true;
  if (health_) {
    if (s < health_->shard_count()) {
      health_->readmit(s, alive_now);
    } else {
      health_->add_shard(shard.site);
      if (!alive_now) health_->readmit(s, false);
    }
  }
  router_.set_alive(s, alive_now);
}

void FleetService::reroute(ServeRequest request,
                           std::vector<bool>& touched) {
  request.rerouted = true;
  if (!router_.any_alive()) {
    shed_request(std::move(request), kNoShard);
    return;
  }
  const std::size_t target = router_.shard_for(request.car);
  if (shards_[target].batcher->pending() >= options_.queue_budget) {
    shed_request(std::move(request), target);
  } else {
    shards_[target].batcher->push(std::move(request));
    ++report_.shard_stats[target].rerouted_in;
    touched[target] = true;
  }
}

bool FleetService::resize(std::size_t target, const std::string& reason) {
  if (target == 0) {
    throw ConfigError("fleet.shards", "resize target must be >= 1");
  }
  if (target == active_shards_ || draining_) return false;
  const double now = queue_.now();
  const std::size_t from = active_shards_;
  const bool up = target > from;

  const bool churn_known = router_.any_alive();
  std::vector<std::size_t> before;
  if (churn_known) before = router_.mapping(options_.cars);

  std::size_t drained = 0;
  if (up) {
    for (std::size_t s = from; s < target; ++s) {
      // Router first so set_alive() in admit_shard sees the slot.
      router_.resize(s + 1);
      admit_shard(s, now);
    }
  } else {
    // Drain the retiring slots' queues BEFORE the ring forgets them, then
    // reroute each orphan through the shrunken ring.
    std::vector<ServeRequest> orphans;
    for (std::size_t s = target; s < from; ++s) {
      Shard& shard = shards_[s];
      std::vector<ServeRequest> mine = shard.batcher->drain();
      drained += mine.size();
      for (ServeRequest& r : mine) orphans.push_back(std::move(r));
      shard.retired = true;
      report_.shard_stats[s].retired_at = now;
      if (health_) health_->retire(s);
    }
    router_.resize(target);
    std::vector<bool> touched(shards_.size(), false);
    for (ServeRequest& r : orphans) reroute(std::move(r), touched);
    for (std::size_t t = 0; t < shards_.size(); ++t) {
      if (touched[t]) {
        set_queue_gauge(t);
        try_dispatch(t);
      }
    }
  }
  active_shards_ = target;

  // Bounded-churn invariant (always on): a grow moves cars only TO the
  // admitted shards, a shrink moves only the retired shards' cars. The
  // statistical |to-from|/max bound lives in the tests; this structural
  // half holds for every fleet size and even under partitions.
  std::size_t moved = 0;
  if (churn_known && router_.any_alive()) {
    const std::vector<std::size_t> after = router_.mapping(options_.cars);
    for (std::size_t car = 0; car < options_.cars; ++car) {
      if (before[car] == after[car]) continue;
      ++moved;
      if (up && after[car] < from) {
        throw std::logic_error(
            "FleetService::resize: grow moved a car between incumbents");
      }
      if (!up && before[car] < target) {
        throw std::logic_error(
            "FleetService::resize: shrink moved a surviving shard's car");
      }
    }
  }

  ScaleEvent event;
  event.t = now;
  event.up = up;
  event.from_shards = from;
  event.to_shards = target;
  event.moved_cars = moved;
  event.churn_frac =
      options_.cars > 0
          ? static_cast<double>(moved) / static_cast<double>(options_.cars)
          : 0.0;
  event.drained = drained;
  event.reason = reason;
  report_.scale_events.push_back(event);
  if (up) {
    ++report_.scale_ups;
  } else {
    ++report_.scale_downs;
  }

  obs::MetricsRegistry* metrics = options_.continuum.metrics;
  obs::Tracer* tracer = options_.continuum.tracer;
  if (metrics) {
    metrics->gauge("serve.shards").set(static_cast<double>(target));
  }
  if (tracer) {
    util::Json args = util::Json::object();
    args.set("dir", util::Json(std::string(up ? "up" : "down")));
    args.set("from", util::Json(from));
    args.set("to", util::Json(target));
    args.set("moved_cars", util::Json(moved));
    args.set("drained", util::Json(drained));
    args.set("reason", util::Json(reason));
    tracer->instant("serve.resize", "serve", std::move(args));
  }
  return true;
}

void FleetService::schedule_arrival(std::size_t car) {
  const double t = queue_.now() + car_rng_[car].exponential(
                                      options_.mean_interarrival_s /
                                      load_factor_);
  if (t >= options_.duration_s) return;
  queue_.schedule_at(t, [this, car] { on_arrival(car); });
}

void FleetService::on_arrival(std::size_t car) {
  const double now = queue_.now();
  // Any registry works for sampling geometry; route first so the sample
  // is drawn against the owning shard's served model.
  ++report_.requests;
  ++window_arrivals_;
  obs::MetricsRegistry* metrics = options_.continuum.metrics;
  if (metrics) metrics->counter("serve.requests").inc();

  if (!router_.any_alive()) {
    // Whole fleet dark (every site partitioned): the car's own edge tier
    // answers — degraded, never an error.
    ServeRequest request;
    request.id = next_id_++;
    request.car = car;
    request.t_arrive = now;
    request.sample = make_sample(car_rng_[car], *shards_[0].registry
                                                     ->current()
                                                     ->model);
    shed_request(std::move(request), kNoShard);
    schedule_arrival(car);
    return;
  }

  const std::size_t s = router_.shard_for(car);
  Shard& shard = shards_[s];
  ++report_.shard_stats[s].requests;
  const auto snapshot = shard.registry->current();
  ServeRequest request;
  request.id = next_id_++;
  request.car = car;
  request.t_arrive = now;
  request.sample = make_sample(car_rng_[car], *snapshot->model);

  if (shard.batcher->pending() >= options_.queue_budget) {
    shed_request(std::move(request), s);
  } else {
    shard.batcher->push(std::move(request));
    set_queue_gauge(s);
    try_dispatch(s);
  }
  schedule_arrival(car);
}

void FleetService::shed_request(ServeRequest request, std::size_t shard) {
  const double now = queue_.now();
  ++window_sheds_;
  ModelRegistry* registry =
      shard == kNoShard ? shards_[0].registry : shards_[shard].registry;
  const auto snapshot = registry->current();
  ml::Prediction prediction;
  snapshot->model->predict_batch(&request.sample, 1, &prediction);

  // The car's own edge tier absorbs the overflow per-sample: degraded
  // latency amortization, never a dropped command.
  const gpu::DeviceSpec& edge = gpu::device(options_.continuum.edge_device);
  const double exec_s =
      gpu::inference_latency_s(edge, scaled_flops(*snapshot->model), 1,
                               pricing_precision(*snapshot->model));

  ServeRecord record;
  record.id = request.id;
  record.car = request.car;
  record.shard = shard;
  record.shed = true;
  record.rerouted = request.rerouted;
  record.tier = Tier::Edge;
  record.model_version = snapshot->version;
  record.batch = 1;
  record.t_arrive = request.t_arrive;
  record.t_dispatch = now;
  record.t_done = now + exec_s;
  record.prediction = prediction;

  obs::MetricsRegistry* metrics = options_.continuum.metrics;
  if (metrics) metrics->counter("serve.shed").inc();
  if (obs::Tracer* tracer = options_.continuum.tracer) {
    const std::size_t depth =
        shard == kNoShard ? 0 : shards_[shard].batcher->pending();
    util::Json args = util::Json::object();
    args.set("car", util::Json(record.car));
    args.set("queue_depth", util::Json(depth));
    tracer->instant("serve.shed", "serve", std::move(args));
    util::Json span = util::Json::object();
    span.set("car", util::Json(record.car));
    span.set("shed", util::Json(true));
    span.set("tier", util::Json(to_string(record.tier)));
    span.set("version", util::Json(record.model_version));
    span.set("queued_s", util::Json(0.0));
    span.set("exec_s", util::Json(exec_s));
    tracer->complete("serve.request", "serve", record.t_arrive, record.t_done,
                     std::move(span));
  }
  queue_.schedule_at(record.t_done, [this, record] { deliver(record); });
}

void FleetService::try_dispatch(std::size_t s) {
  Shard& shard = shards_[s];
  // A retired slot's queue was drained at retirement; late callbacks
  // (deadline, batch completion) land here and must not revive it.
  if (shard.retired) return;
  while (!shard.busy && !shard.batcher->empty() &&
         (draining_ || shard.batcher->ready(queue_.now()))) {
    dispatch_batch(s);
  }
  if (!shard.busy && !draining_ && !shard.batcher->empty()) arm_deadline(s);
}

void FleetService::arm_deadline(std::size_t s) {
  Shard& shard = shards_[s];
  if (shard.deadline_armed) return;
  shard.deadline_armed = true;
  const double t = std::max(queue_.now(), shard.batcher->deadline());
  queue_.schedule_at(t, [this, s] {
    shards_[s].deadline_armed = false;
    try_dispatch(s);
  });
}

void FleetService::dispatch_batch(std::size_t s) {
  Shard& shard = shards_[s];
  const double now = queue_.now();
  std::vector<ServeRequest> batch = shard.batcher->take();
  set_queue_gauge(s);
  const std::size_t n = batch.size();
  const auto snapshot = shard.registry->current();

  // One batched forward through the GEMM backbone — this is the whole
  // point of the batcher. Run it before pricing: conv layers size
  // themselves on the first forward, so flops_per_sample() is only
  // meaningful afterwards.
  std::vector<ml::Sample> samples;
  samples.reserve(n);
  for (ServeRequest& r : batch) samples.push_back(std::move(r.sample));
  std::vector<ml::Prediction> predictions(n);
  snapshot->model->predict_batch(samples.data(), n, predictions.data());

  const std::uint64_t flops = scaled_flops(*snapshot->model);
  const gpu::Precision precision = pricing_precision(*snapshot->model);
  const Tier tier = choose_tier(s, now, n, flops, precision);
  const gpu::DeviceSpec& spec =
      gpu::device(tier == Tier::Cloud ? options_.continuum.cloud_device
                                      : options_.continuum.edge_device);
  const double exec_s = gpu::inference_latency_s(spec, flops, n, precision);
  const double t_exec_done = now + exec_s;

  double rtt_s = 0.0;
  if (tier == Tier::Cloud) {
    rtt_s = options_.continuum.network_rtt_s;
    if (options_.continuum.rtt_jitter_s > 0.0) {
      rtt_s += shard.jitter_rng.normal(0.0, options_.continuum.rtt_jitter_s);
    }
    rtt_s = std::max(0.0, rtt_s);
  }
  const double t_done = t_exec_done + rtt_s;

  ++report_.batches;
  ++report_.shard_stats[s].batches;
  report_.batch_sizes.push_back(n);
  if (tier == Tier::Cloud) {
    ++report_.cloud_batches;
    shard.cloud_requests += n;
  } else {
    ++report_.edge_batches;
  }

  obs::MetricsRegistry* metrics = options_.continuum.metrics;
  obs::Tracer* tracer = options_.continuum.tracer;
  if (metrics) {
    metrics->counter("serve.batches").inc();
    metrics->counter("serve.shard." + std::to_string(s) + ".batches").inc();
    metrics->histogram("serve.batch_size", {1, 2, 4, 8, 16, 32, 64})
        .observe(static_cast<double>(n));
    metrics->histogram("serve.batch_exec_s").observe(exec_s);
  }
  if (tracer) {
    util::Json args = util::Json::object();
    args.set("size", util::Json(n));
    args.set("tier", util::Json(to_string(tier)));
    args.set("version", util::Json(snapshot->version));
    args.set("exec_s", util::Json(exec_s));
    args.set("shard", util::Json(s));
    tracer->complete("serve.batch", "serve", now, t_exec_done,
                     std::move(args));
  }

  for (std::size_t i = 0; i < n; ++i) {
    const ServeRequest& r = batch[i];
    ServeRecord record;
    record.id = r.id;
    record.car = r.car;
    record.shard = s;
    record.shed = false;
    record.rerouted = r.rerouted;
    record.tier = tier;
    record.model_version = snapshot->version;
    record.batch = n;
    record.t_arrive = r.t_arrive;
    record.t_dispatch = now;
    record.t_done = t_done;
    record.prediction = predictions[i];

    const double queued_s = now - r.t_arrive;
    window_queued_.push_back(queued_s);
    if (metrics) metrics->histogram("serve.queued_s").observe(queued_s);
    if (tracer) {
      util::Json span = util::Json::object();
      span.set("car", util::Json(record.car));
      span.set("shed", util::Json(false));
      span.set("tier", util::Json(to_string(tier)));
      span.set("version", util::Json(record.model_version));
      span.set("batch", util::Json(n));
      span.set("queued_s", util::Json(queued_s));
      span.set("exec_s", util::Json(exec_s));
      span.set("rtt_s", util::Json(rtt_s));
      span.set("shard", util::Json(s));
      tracer->complete("serve.request", "serve", record.t_arrive,
                       record.t_done, std::move(span));
    }
    queue_.schedule_at(t_done, [this, record] { deliver(record); });
  }

  shard.busy = true;
  queue_.schedule_at(t_exec_done, [this, s] {
    shards_[s].busy = false;
    try_dispatch(s);
  });
}

Tier FleetService::choose_tier(std::size_t s, double now, std::size_t batch,
                               std::uint64_t flops,
                               gpu::Precision precision) {
  Shard& shard = shards_[s];
  bool want_cloud = false;
  switch (options_.placement) {
    case core::Placement::OnDevice:
      want_cloud = false;
      break;
    case core::Placement::Cloud:
      want_cloud = true;
      break;
    case core::Placement::Hybrid: {
      // Per-batch cost gate on the same perf model the continuum uses:
      // ship only when RTT + cloud compute beats local compute.
      const double edge_s = gpu::inference_latency_s(
          gpu::device(options_.continuum.edge_device), flops, batch,
          precision);
      const double cloud_s =
          options_.continuum.network_rtt_s +
          gpu::inference_latency_s(gpu::device(options_.continuum.cloud_device),
                                   flops, batch, precision);
      want_cloud = cloud_s < edge_s;
      break;
    }
  }
  if (!want_cloud) return Tier::Edge;

  obs::MetricsRegistry* metrics = options_.continuum.metrics;
  if (!shard.breaker->allow(now)) {
    ++shard.denied_batches;
    report_.denied += batch;
    report_.shard_stats[s].denied += batch;
    if (metrics) metrics->counter("serve.denied").inc(batch);
    return Tier::Edge;
  }
  if (!site_reachable(s, now)) {
    shard.breaker->record_failure(now);
    ++report_.failover_batches;
    if (metrics) metrics->counter("serve.failovers").inc();
    return Tier::Edge;
  }
  shard.breaker->record_success(now);
  if (shard.awaiting_recovery && shard.breaker->last_closed_at() >= 0.0) {
    shard.recovery_latency_s = now - shard.breaker->last_closed_at();
    shard.awaiting_recovery = false;
  }
  return Tier::Cloud;
}

bool FleetService::site_reachable(std::size_t s, double now) const {
  if (options_.site_probe) return options_.site_probe(shards_[s].site, now);
  if (options_.continuum.cloud_probe) {
    return options_.continuum.cloud_probe(now);
  }
  return true;
}

void FleetService::on_shard_down(std::size_t s) {
  router_.set_alive(s, false);
  ++report_.shard_stats[s].downs;

  // Reroute the dead shard's queue to the survivors. Consistent hashing
  // bounds the churn: only this shard's cars move, everyone else keeps
  // their worker. An executing batch completes — its responses are
  // already in flight back to the cars.
  std::vector<ServeRequest> orphans = shards_[s].batcher->drain();
  set_queue_gauge(s);
  if (orphans.empty()) return;

  obs::MetricsRegistry* metrics = options_.continuum.metrics;
  obs::Tracer* tracer = options_.continuum.tracer;
  if (metrics) {
    metrics->counter("serve.failover.rerouted").inc(orphans.size());
  }
  if (tracer) {
    util::Json args = util::Json::object();
    args.set("shard", util::Json(s));
    args.set("site", util::Json(shards_[s].site));
    args.set("rerouted", util::Json(orphans.size()));
    tracer->instant("serve.failover", "serve", std::move(args));
  }

  report_.rebalanced += orphans.size();
  report_.failover_by_shard[s] += orphans.size();
  report_.shard_stats[s].failed_over += orphans.size();

  std::vector<bool> touched(shards_.size(), false);
  for (ServeRequest& r : orphans) reroute(std::move(r), touched);
  for (std::size_t t = 0; t < shards_.size(); ++t) {
    if (touched[t]) {
      set_queue_gauge(t);
      try_dispatch(t);
    }
  }
}

void FleetService::on_shard_up(std::size_t s) {
  // Re-admit the shard: exactly its original cars route back to it on
  // their next arrival (consistent hashing again bounds the churn).
  router_.set_alive(s, true);
}

void FleetService::deliver(ServeRecord record) {
  if (record.shed) {
    ++report_.shed;
    ++report_.shed_by_car[record.car];
    if (record.shard != kNoShard) ++report_.shard_stats[record.shard].shed;
  } else {
    ++report_.completed;
    ++report_.shard_stats[record.shard].completed;
  }
  ++report_.requests_by_version[record.model_version];
  report_.records.push_back(std::move(record));
}

void FleetService::set_queue_gauge(std::size_t s) {
  obs::MetricsRegistry* metrics = options_.continuum.metrics;
  if (!metrics) return;
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.batcher->pending();
  metrics->gauge("serve.queue_depth").set(static_cast<double>(total));
  if (shards_.size() > 1) {
    metrics->gauge("serve.shard." + std::to_string(s) + ".queue_depth")
        .set(static_cast<double>(shards_[s].batcher->pending()));
  }
}

ml::Sample FleetService::make_sample(util::Rng& rng,
                                     const ml::DrivingModel& model) const {
  ml::Sample s;
  const std::size_t frames = std::max<std::size_t>(1, model.seq_len());
  s.frames.reserve(frames);
  for (std::size_t f = 0; f < frames; ++f) {
    s.frames.emplace_back(options_.img_w, options_.img_h,
                          static_cast<float>(rng.uniform(0.0, 1.0)));
  }
  for (std::size_t h = 0; h < model.history_len(); ++h) {
    s.history.push_back(static_cast<float>(rng.uniform(-1.0, 1.0)));
    s.history.push_back(0.5f);
  }
  return s;
}

std::uint64_t FleetService::scaled_flops(const ml::DrivingModel& model) const {
  // Call sites run a forward first: conv layers size lazily, so
  // flops_per_sample() only counts the full stack after one pass.
  return static_cast<std::uint64_t>(
      static_cast<double>(model.flops_per_sample()) *
      options_.continuum.flops_scale);
}

}  // namespace autolearn::serve
