// Geo-sharded fleet serving: consistent-hash router determinism and
// bounded churn, heartbeat health monitoring, chaos-partition failover
// with the zero-failed-requests invariant, and the gated canary rollout
// path (corrupted models roll back and never reach the rest of the
// fleet).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/chaos.hpp"
#include "net/network.hpp"
#include "ml/plan.hpp"
#include "obs/metrics.hpp"
#include "serve/errors.hpp"
#include "serve/service.hpp"
#include "testbed/topology.hpp"
#include "util/event_queue.hpp"

namespace autolearn::serve {
namespace {

std::shared_ptr<ml::DrivingModel> make_shared_model(std::uint64_t seed = 42) {
  ml::ModelConfig cfg;
  cfg.seed = seed;
  return std::shared_ptr<ml::DrivingModel>(
      ml::make_model(ml::ModelType::Linear, cfg));
}

std::vector<ml::Sample> make_probes(std::size_t n) {
  std::vector<ml::Sample> probes(n);
  for (std::size_t i = 0; i < n; ++i) {
    probes[i].frames.emplace_back(32, 24,
                                  0.1f * static_cast<float>(i + 1));
  }
  return probes;
}

/// A model whose forward is corrupted (NaN steering) but whose shape and
/// cost match the wrapped model — the canary gate must catch it.
class BrokenModel : public ml::DrivingModel {
 public:
  explicit BrokenModel(std::shared_ptr<ml::DrivingModel> inner)
      : inner_(std::move(inner)) {}
  ml::ModelType type() const override { return inner_->type(); }
  std::size_t seq_len() const override { return inner_->seq_len(); }
  std::size_t history_len() const override { return inner_->history_len(); }
  ml::Prediction predict(const ml::Sample&) override {
    ml::Prediction p;
    p.steering = std::numeric_limits<double>::quiet_NaN();
    p.throttle = 0.0;
    return p;
  }
  void predict_batch(const ml::Sample* obs, std::size_t n,
                     ml::Prediction* out) override {
    for (std::size_t i = 0; i < n; ++i) out[i] = predict(obs[i]);
  }
  double train_batch(const std::vector<const ml::Sample*>& batch) override {
    return inner_->train_batch(batch);
  }
  double eval_batch(const std::vector<const ml::Sample*>& batch) override {
    return inner_->eval_batch(batch);
  }
  std::size_t num_parameters() override { return inner_->num_parameters(); }
  std::uint64_t flops_per_sample() const override {
    return inner_->flops_per_sample();
  }
  void save(std::ostream& os) override { inner_->save(os); }
  void load(std::istream& is) override { inner_->load(is); }

 private:
  std::shared_ptr<ml::DrivingModel> inner_;
};

// --- shard router ----------------------------------------------------------

TEST(ShardRouter, ValidatesConfig) {
  ShardRouterConfig bad;
  bad.shards = 0;
  EXPECT_THROW(ShardRouter{bad}, std::invalid_argument);
  bad = ShardRouterConfig{};
  bad.replicas = 0;
  EXPECT_THROW(ShardRouter{bad}, std::invalid_argument);
}

TEST(ShardRouter, MappingIsDeterministicAndCoversEveryShard) {
  ShardRouterConfig cfg;
  cfg.shards = 4;
  const ShardRouter a(cfg);
  const ShardRouter b(cfg);
  const auto map_a = a.mapping(256);
  EXPECT_EQ(map_a, b.mapping(256));

  std::vector<std::size_t> load(cfg.shards, 0);
  for (const std::size_t s : map_a) {
    ASSERT_LT(s, cfg.shards);
    ++load[s];
  }
  // 64 virtual points per shard keep the ring reasonably smooth: every
  // shard owns a real slice of the fleet.
  for (const std::size_t l : load) EXPECT_GE(l, 256u / cfg.shards / 4);

  ShardRouterConfig salted = cfg;
  salted.salt ^= 0xabcdef;
  EXPECT_NE(ShardRouter(salted).mapping(256), map_a);
}

TEST(ShardRouter, DeathMovesOnlyTheDeadShardsKeysAndRevivalRestoresThem) {
  ShardRouterConfig cfg;
  cfg.shards = 4;
  ShardRouter r(cfg);
  const auto before = r.mapping(256);

  r.set_alive(2, false);
  EXPECT_EQ(r.alive_count(), 3u);
  const auto during = r.mapping(256);
  std::size_t moved = 0;
  for (std::size_t car = 0; car < before.size(); ++car) {
    if (before[car] == 2) {
      EXPECT_NE(during[car], 2u);  // spilled to a survivor
      ++moved;
    } else {
      EXPECT_EQ(during[car], before[car]);  // bounded churn: nobody else moves
    }
  }
  EXPECT_GT(moved, 0u);

  r.set_alive(2, true);
  EXPECT_EQ(r.mapping(256), before);  // exactly those cars come home
}

TEST(ShardRouter, NoLiveShardThrowsAndIsVisible) {
  ShardRouterConfig cfg;
  cfg.shards = 2;
  ShardRouter r(cfg);
  r.set_alive(0, false);
  r.set_alive(1, false);
  EXPECT_FALSE(r.any_alive());
  EXPECT_THROW(r.shard_for(0), std::logic_error);
  r.set_alive(1, true);
  EXPECT_EQ(r.shard_for(0), 1u);  // every key drains to the lone survivor
}

// --- health monitor --------------------------------------------------------

TEST(HealthMonitor, TimesOutDeadSitesAndRevivesThemOnFirstHeartbeat) {
  util::EventQueue queue;
  HealthOptions opt;
  opt.check_interval_s = 0.02;
  opt.timeout_s = 0.05;
  HealthMonitor monitor(queue, opt);
  ASSERT_EQ(monitor.add_shard("site-a"), 0u);

  // Site dark during [0.10, 0.25).
  monitor.set_probe([](const std::string&, double now) {
    return now < 0.10 || now >= 0.25;
  });
  double down_at = -1.0;
  double up_at = -1.0;
  monitor.set_on_down([&](std::size_t shard) {
    EXPECT_EQ(shard, 0u);
    down_at = queue.now();
  });
  monitor.set_on_up([&](std::size_t shard) {
    EXPECT_EQ(shard, 0u);
    up_at = queue.now();
  });
  monitor.start(1.0);
  queue.run();

  // Last good heartbeat lands at 0.08; the 0.14 sweep is the first where
  // the site has been dark past the 0.05 timeout. The 0.26 sweep is the
  // first successful heartbeat after the heal.
  EXPECT_NEAR(down_at, 0.14, 1e-9);
  EXPECT_NEAR(up_at, 0.26, 1e-9);
  EXPECT_EQ(monitor.downs(), 1u);
  EXPECT_EQ(monitor.ups(), 1u);
  EXPECT_TRUE(monitor.alive(0));
}

// --- sharded fleet under chaos ---------------------------------------------

struct PartitionedOut {
  ServeReport report;
  std::size_t chaos_injected = 0;
};

/// 4 shards alternating across the two Chameleon sites; chaos partitions
/// CHI@TACC (shards 1 and 3) for [0.3, 0.7) of a 1.0 s run.
PartitionedOut run_partitioned_fleet(std::uint64_t seed) {
  util::EventQueue queue;
  net::Network net = testbed::chameleon_network();
  fault::ChaosEngine chaos(queue, 7);
  chaos.attach_network(net);
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::Partition;
  spec.at = 0.3;
  spec.duration = 0.4;
  spec.target = testbed::kSiteTACC;
  chaos.inject(spec);

  ModelRegistry registry;
  registry.publish(make_shared_model());

  FleetOptions opt;
  opt.cars = 8;
  opt.shards = 4;
  opt.duration_s = 1.0;
  opt.mean_interarrival_s = 0.005;
  opt.batcher.max_batch = 8;
  opt.batcher.max_delay_s = 0.01;
  opt.placement = core::Placement::Cloud;
  opt.seed = seed;
  opt.site_probe = [&net](const std::string& site, double) {
    return net.route(testbed::kCampusGateway, site).has_value();
  };

  FleetService service(queue, registry, opt);
  PartitionedOut out;
  out.report = service.run();
  out.chaos_injected = chaos.report().injected;
  return out;
}

TEST(ShardedFleet, SameSeedSamePartitionIsBitwiseIdentical) {
  const PartitionedOut a = run_partitioned_fleet(11);
  const PartitionedOut b = run_partitioned_fleet(11);
  EXPECT_EQ(a.report.batch_sizes, b.report.batch_sizes);
  EXPECT_EQ(a.report.to_json().dump(), b.report.to_json().dump());
  EXPECT_EQ(a.report.summary(), b.report.summary());

  const PartitionedOut c = run_partitioned_fleet(12);
  EXPECT_NE(a.report.to_json().dump(), c.report.to_json().dump());
}

TEST(ShardedFleet, SiteLossFailsOverWithZeroFailedRequests) {
  const PartitionedOut out = run_partitioned_fleet(11);
  const ServeReport& r = out.report;
  ASSERT_EQ(out.chaos_injected, 1u);
  ASSERT_EQ(r.shards, 4u);
  ASSERT_EQ(r.shard_stats.size(), 4u);

  // Shards 1 and 3 sit on CHI@TACC; the health monitor must declare both
  // dead during the partition and re-admit both after the heal.
  EXPECT_EQ(r.shard_stats[0].site, testbed::kSiteUC);
  EXPECT_EQ(r.shard_stats[1].site, testbed::kSiteTACC);
  EXPECT_EQ(r.shard_downs, 2u);
  EXPECT_EQ(r.shard_ups, 2u);
  EXPECT_EQ(r.shard_stats[1].downs, 1u);
  EXPECT_EQ(r.shard_stats[3].downs, 1u);
  EXPECT_EQ(r.shard_stats[0].downs, 0u);

  // The invariant the whole design defends: degraded, never failed.
  EXPECT_GT(r.requests, 1000u);
  EXPECT_EQ(r.requests, r.completed + r.shed);
  EXPECT_EQ(r.records.size(), r.requests);

  // Attribution sums must agree with the aggregates.
  std::size_t shed_sum = 0;
  for (const std::size_t s : r.shed_by_car) shed_sum += s;
  EXPECT_EQ(shed_sum, r.shed);
  std::size_t failover_sum = 0;
  for (const std::size_t s : r.failover_by_shard) failover_sum += s;
  EXPECT_EQ(failover_sum, r.rebalanced);
  std::size_t routed = 0;
  std::size_t rerouted_in = 0;
  for (const ShardStats& s : r.shard_stats) {
    routed += s.requests;
    rerouted_in += s.rerouted_in;
  }
  EXPECT_EQ(routed, r.requests);  // CHI@UC stayed up: nothing went unrouted
  EXPECT_LE(rerouted_in, r.rebalanced);  // the rest were shed on arrival

  // Survivors absorbed traffic: every shard answered requests, and the
  // dead shards' arrivals kept flowing (their stats freeze while dead, so
  // UC shards carry more).
  for (const ShardStats& s : r.shard_stats) EXPECT_GT(s.completed, 0u);
  EXPECT_GT(r.shard_stats[0].requests + r.shard_stats[2].requests,
            r.shard_stats[1].requests + r.shard_stats[3].requests);
}

TEST(ShardedFleet, ShardsOneIsTheSingleWorkerService) {
  // shards = 1 must stay bitwise-identical to the pre-sharding service:
  // one worker, no health monitor, no reroutes, empty failover vector sums.
  util::EventQueue queue;
  ModelRegistry registry;
  registry.publish(make_shared_model());
  FleetOptions opt;
  opt.cars = 4;
  opt.duration_s = 0.5;
  opt.mean_interarrival_s = 0.01;
  opt.batcher.max_batch = 8;
  opt.batcher.max_delay_s = 0.01;
  opt.seed = 11;
  FleetService service(queue, registry, opt);
  const ServeReport r = service.run();
  EXPECT_EQ(r.shards, 1u);
  EXPECT_EQ(r.shard_downs, 0u);
  EXPECT_EQ(r.rebalanced, 0u);
  EXPECT_EQ(service.health(), nullptr);
  EXPECT_EQ(r.shard_stats.size(), 1u);
  EXPECT_EQ(r.shard_stats[0].requests, r.requests);
  EXPECT_EQ(r.requests, r.completed + r.shed);
}

TEST(ShardedFleet, ReplicatedModeRequiresMatchingShardCount) {
  util::EventQueue queue;
  ReplicatedRegistry reg(2);
  reg.publish_all(make_shared_model());
  FleetOptions opt;
  opt.shards = 3;
  try {
    FleetService service(queue, reg, opt);
    FAIL() << "shard-count mismatch must throw";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.field(), "fleet.shards");
  }
}

// --- canary rollout --------------------------------------------------------

TEST(Canary, HealthyCandidatePromotesFleetWide) {
  ReplicatedRegistry reg(4);
  reg.publish_all(make_shared_model(42), "bootstrap");
  CanaryOptions opt;
  opt.canary_shards = 1;
  // Same weights as the incumbent: zero drift, zero errors.
  const auto outcome =
      reg.publish_canary(make_shared_model(42), "retrain", opt,
                         make_probes(8));
  ASSERT_TRUE(outcome->decided);
  EXPECT_TRUE(outcome->promoted);
  EXPECT_FALSE(outcome->rolled_back);
  EXPECT_DOUBLE_EQ(outcome->steering_drift, 0.0);
  EXPECT_DOUBLE_EQ(outcome->error_rate, 0.0);
  EXPECT_EQ(reg.promotions(), 1u);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(reg.shard(s).version(), 2u) << "shard " << s;
  }
}

TEST(Canary, CorruptedCandidateRollsBackAndNeverReachesTheFleet) {
  ReplicatedRegistry reg(4);
  const auto good = make_shared_model(42);
  reg.publish_all(good, "bootstrap");
  CanaryOptions opt;
  opt.canary_shards = 1;
  const auto outcome = reg.publish_canary(
      std::make_shared<BrokenModel>(make_shared_model(42)), "bad-retrain",
      opt, make_probes(8));
  ASSERT_TRUE(outcome->decided);
  EXPECT_TRUE(outcome->rolled_back);
  EXPECT_FALSE(outcome->promoted);
  EXPECT_DOUBLE_EQ(outcome->error_rate, 1.0);
  EXPECT_EQ(reg.rollbacks(), 1u);

  // Non-canary shards never saw the candidate; the slice reverted to the
  // incumbent model object.
  for (std::size_t s = 1; s < 4; ++s) {
    EXPECT_EQ(reg.shard(s).version(), 1u) << "shard " << s;
    EXPECT_EQ(reg.shard(s).current()->model.get(), good.get());
  }
  EXPECT_EQ(reg.shard(0).current()->model.get(), good.get());
  EXPECT_GT(reg.shard(0).version(), outcome->canary_version);
}

TEST(Canary, GateKeepsTheIncumbentPlanCapAndMatchesUnslicedScoring) {
  const std::vector<ml::Sample> probes = make_probes(24);
  CanaryOptions opt;
  opt.canary_shards = 1;
  // Sliced: the incumbent has served batches of 8 (cap 8), the candidate
  // has never run. Unsliced: twins of both already compiled at cap 32, so
  // each scores all 24 probes in one batch.
  std::vector<ml::Prediction> out(24);
  const auto served = make_shared_model(42);
  served->predict_batch(probes.data(), 8, out.data());
  ASSERT_EQ(served->plan()->max_batch(), 8u);
  const auto candidate = make_shared_model(7);
  const auto served_twin = make_shared_model(42);
  const auto candidate_twin = make_shared_model(7);
  served_twin->predict_batch(probes.data(), 24, out.data());
  candidate_twin->predict_batch(probes.data(), 24, out.data());

  ReplicatedRegistry sliced_reg(2), unsliced_reg(2);
  sliced_reg.publish_all(served, "bootstrap");
  unsliced_reg.publish_all(served_twin, "bootstrap");
  const auto sliced =
      sliced_reg.publish_canary(candidate, "retrain", opt, probes);
  const auto unsliced =
      unsliced_reg.publish_canary(candidate_twin, "retrain", opt, probes);

  EXPECT_EQ(served->plan()->max_batch(), 8u);
  EXPECT_EQ(candidate->plan()->max_batch(), 1u);
  EXPECT_EQ(served_twin->plan()->max_batch(), 32u);
  ASSERT_TRUE(sliced->decided);
  EXPECT_GT(sliced->steering_drift, 0.0);
  EXPECT_EQ(sliced->steering_drift, unsliced->steering_drift);  // bitwise
  EXPECT_EQ(sliced->error_rate, unsliced->error_rate);
  EXPECT_EQ(sliced->promoted, unsliced->promoted);
  EXPECT_EQ(sliced->rolled_back, unsliced->rolled_back);
  EXPECT_EQ(sliced->canary_version, unsliced->canary_version);
  EXPECT_EQ(sliced->reason, unsliced->reason);
}

TEST(Canary, MidRunBakeGatesOnTheVirtualClockAndShieldsOtherShards) {
  util::EventQueue queue;
  ReplicatedRegistry reg(2);
  reg.publish_all(make_shared_model(42), "bootstrap");

  FleetOptions opt;
  opt.cars = 4;
  opt.shards = 2;
  opt.duration_s = 1.0;
  opt.mean_interarrival_s = 0.01;
  opt.batcher.max_batch = 8;
  opt.batcher.max_delay_s = 0.01;
  opt.seed = 11;
  FleetService service(queue, reg, opt);

  std::shared_ptr<const CanaryOutcome> outcome;
  queue.schedule_at(0.3, [&] {
    CanaryOptions copt;
    copt.canary_shards = 1;
    copt.bake_s = 0.2;  // gate fires at t = 0.5, mid-run
    outcome = reg.publish_canary(
        std::make_shared<BrokenModel>(make_shared_model(42)), "bad", copt,
        make_probes(8), &queue);
  });

  const ServeReport r = service.run();
  ASSERT_NE(outcome, nullptr);
  ASSERT_TRUE(outcome->decided);
  EXPECT_TRUE(outcome->rolled_back);

  // Requests kept flowing throughout the bake and rollback.
  EXPECT_EQ(r.requests, r.completed + r.shed);
  // Shard 1 (non-canary) never served the corrupted version; shard 0
  // served it only during the bake window.
  bool canary_served = false;
  for (const ServeRecord& rec : r.records) {
    if (rec.model_version == outcome->canary_version) {
      canary_served = true;
      EXPECT_EQ(rec.shard, 0u);
      EXPECT_GE(rec.t_dispatch, 0.3);
    }
  }
  EXPECT_TRUE(canary_served);
  EXPECT_EQ(reg.shard(1).version(), 1u);
}

}  // namespace
}  // namespace autolearn::serve
