// Chaos study: how does the hybrid edge/cloud control loop degrade when
// the continuum fails underneath it?
//
// Builds the car <-> campus <-> Chameleon topology, trains a cloud model
// and an edge fallback, then evaluates the Hybrid placement three times:
// once on a healthy network, once under a scripted mid-run partition of
// the cloud site, and once under a seed-generated random fault plan. The
// circuit breaker guarding cloud inference trips during each outage, the
// edge model takes over, and the breaker's half-open probes re-admit the
// cloud once the partition heals. Every run is reproducible from the seed
// printed with the report.
//
//   $ ./chaos_study [seed]
//
// The seed is an unsigned decimal integer; anything else is a usage error
// (exit 2) rather than a silent seed 0.
#include <charconv>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "core/continuum.hpp"
#include "core/pipeline.hpp"
#include "fault/chaos.hpp"
#include "fault/preempt.hpp"
#include "fed/aggregator.hpp"
#include "ml/trainer.hpp"
#include "net/network.hpp"
#include "net/transfer.hpp"
#include "objectstore/objectstore.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/replication.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"
#include "testbed/topology.hpp"
#include "track/track.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace autolearn;
  namespace fs = std::filesystem;

  std::uint64_t seed = 42;
  if (argc > 1) {
    const char* end = argv[1] + std::strlen(argv[1]);
    const auto [ptr, ec] = std::from_chars(argv[1], end, seed);
    if (argc > 2 || ec != std::errc{} || ptr != end) {
      std::cerr << "usage: chaos_study [seed]"
                   "  (seed: an unsigned decimal integer)\n";
      return 2;
    }
  }
  const track::Track track = track::Track::paper_oval();

  auto train_model = [&](ml::ModelType type, std::size_t epochs,
                         ml::ModelConfig mcfg) {
    core::PipelineOptions opt;
    opt.model = type;
    opt.model_config = mcfg;
    opt.collect_duration_s = 120.0;
    opt.driver.steering_noise = 0.08;
    opt.train.epochs = epochs;
    opt.eval.duration_s = 1.0;  // skip the long built-in eval
    core::Pipeline pipe(track, opt,
                        fs::temp_directory_path() /
                            (std::string("autolearn_chaos_") +
                             ml::to_string(type)));
    pipe.run();
    return pipe;
  };
  std::cout << "Training the cloud model (linear)...\n";
  core::Pipeline cloud_pipe =
      train_model(ml::ModelType::Linear, 8, ml::ModelConfig{});
  std::cout << "Training the edge fallback (inferred)...\n";
  core::Pipeline edge_pipe =
      train_model(ml::ModelType::Inferred, 2, ml::ModelConfig{});

  // The paper's deployment: car on campus Wi-Fi, Chameleon over Internet2.
  net::Network net;
  net.add_host("car-01");
  net.add_host("campus");
  net.add_host("chi-uc");
  net.add_duplex("car-01", "campus", net::Link::edge_wifi());
  net.add_duplex("campus", "chi-uc", net::Link::campus_to_cloud());

  const double duration_s = 40.0;
  util::TablePrinter table({"scenario", "laps", "errors", "cloud use",
                            "failovers", "denied", "degraded (s)",
                            "recovery (ms)"});

  // One metrics registry across scenarios; one tracer, cleared per
  // scenario so the exported file holds the last (random plan) timeline.
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;

  // Each scenario gets its own event queue + engine so timelines don't mix.
  auto run_scenario = [&](const char* name,
                          const std::vector<fault::FaultSpec>& plan) {
    util::EventQueue queue;
    tracer.clear();
    tracer.use_clock([&queue] { return queue.now(); });
    fault::ChaosEngine engine(queue, seed);
    engine.instrument(&tracer, &metrics);
    engine.attach_network(net);
    engine.inject_plan(plan);

    core::ContinuumOptions copt;
    copt.network_rtt_s = 0.08;
    copt.rtt_jitter_s = 0.0;
    copt.breaker.failure_threshold = 2;
    copt.breaker.open_duration_s = 0.5;
    copt.cloud_probe = [&net](double) {
      return net.route("car-01", "chi-uc").has_value();
    };
    copt.tracer = &tracer;
    copt.metrics = &metrics;

    eval::EvalOptions eopt;
    eopt.duration_s = duration_s;
    eopt.seed = seed;
    eopt.chaos_queue = &queue;
    const eval::EvalResult r = core::evaluate_placement(
        track, cloud_pipe.model(), edge_pipe.model(), core::Placement::Hybrid,
        copt, eopt);

    const fault::DegradationStats& d = r.degradation;
    table.add_row(
        {name, util::TablePrinter::num(r.laps, 2),
         util::TablePrinter::num(static_cast<long long>(r.errors)),
         util::TablePrinter::num(d.cloud_usage, 3),
         util::TablePrinter::num(static_cast<long long>(d.failovers)),
         util::TablePrinter::num(static_cast<long long>(d.denied_calls)),
         util::TablePrinter::num(d.degraded_time_s, 2),
         util::TablePrinter::num(d.recovery_latency_s * 1000, 0)});
    if (!engine.report().timeline.empty()) {
      std::cout << "\n[" << name << "] fault timeline:\n"
                << engine.report().summary();
    }
  };

  run_scenario("healthy", {});
  // One scripted outage: the cloud site drops off the routing graph for a
  // quarter of the run, mid-evaluation.
  run_scenario("partition",
               {{fault::FaultKind::Partition, duration_s * 0.4,
                 duration_s * 0.25, "chi-uc"}});
  // A seeded random plan mixing partitions and Wi-Fi degradation.
  {
    util::EventQueue queue;
    fault::ChaosEngine planner(queue, seed);
    fault::RandomPlanOptions popt;
    popt.horizon_s = duration_s;
    popt.faults = 4;
    popt.mean_duration_s = 4.0;
    popt.partition_host = "chi-uc";
    popt.link_from = "car-01";
    popt.link_to = "campus";
    run_scenario("random plan", planner.random_plan(popt));
  }

  // --- Part 2: lease preemption during training ---------------------------
  //
  // A Chameleon lease ending mid-fit is a SIGKILL — the process gets no
  // chance to save. The checkpoint interval decides the blast radius: the
  // batches trained since the last durable generation are re-run on
  // resume, everything older is recovered from the store, and the resumed
  // fit continues bitwise-identically either way. Each row kills the same
  // fit at the same seed-drawn tick and only varies the interval.
  std::cout << "\nTraining under lease preemption (same kill, four "
               "checkpoint intervals)...\n";

  // A small synthetic steering task: a bright vertical band whose column
  // position encodes the steering label.
  ml::ModelConfig mcfg;
  mcfg.seed = seed;
  std::vector<ml::Sample> band_train;
  {
    util::Rng data_rng(seed + 1);
    for (int i = 0; i < 96; ++i) {
      const std::size_t col = static_cast<std::size_t>(data_rng.uniform_int(
          2, static_cast<std::int64_t>(mcfg.img_w) - 3));
      camera::Image img(mcfg.img_w, mcfg.img_h, 0.1f);
      for (std::size_t y = 0; y < mcfg.img_h; ++y) {
        for (std::size_t dx = 0; dx < 3; ++dx) img.at(col - 1 + dx, y) = 0.9f;
      }
      ml::Sample s;
      s.frames.push_back(img);
      s.steering = static_cast<float>(
          2.0 * static_cast<double>(col) / (mcfg.img_w - 1) - 1.0);
      s.throttle = 0.5f;
      band_train.push_back(std::move(s));
    }
  }
  const std::vector<ml::Sample> no_val;

  util::TablePrinter preempt_table({"ckpt interval", "kill tick",
                                    "batches lost", "recovered", "saves",
                                    "ckpt KB"});
  std::string last_timeline;
  for (const std::size_t interval : {std::size_t{0}, std::size_t{4},
                                     std::size_t{2}, std::size_t{1}}) {
    util::EventQueue queue;
    objectstore::ObjectStore blobs;
    ckpt::StoreOptions sopt;
    sopt.spill_dir = "checkpoints";  // git-ignored local envelope copies
    ckpt::CheckpointStore ckpts(blobs, sopt);
    ckpts.instrument(nullptr, &metrics);
    // Same seed every iteration => the engine draws the same kill tick.
    fault::ChaosEngine engine(queue, seed);
    engine.attach_checkpoints(ckpts);
    engine.instrument(nullptr, &metrics);

    ml::TrainOptions topt;
    topt.epochs = 2;  // long epochs: the interval, not the epoch boundary,
    topt.batch_size = 8;  // decides how much work a kill destroys
    topt.metrics = &metrics;
    topt.checkpoint_store = &ckpts;
    topt.checkpoint_key =
        "lease-fit-every-" + (interval ? std::to_string(interval) : "epoch");
    topt.checkpoint_every_batches = interval;
    const std::size_t total_batches =
        (band_train.size() / topt.batch_size) * topt.epochs;

    fault::PreemptionToken token;
    fault::PreemptPlanOptions window;
    window.min_tick = 2;
    window.max_tick = 2 * total_batches - 1;
    const std::uint64_t tick = engine.arm_preemption(token, window);
    const std::uint64_t bytes0 = metrics.counter_value("ckpt.save_bytes");

    std::size_t done_before_kill = 0;
    {
      ml::TrainOptions killed = topt;
      killed.preempt = &token;
      auto doomed = ml::make_model(ml::ModelType::Linear, mcfg);
      ml::Trainer trainer(*doomed, band_train, no_val, killed);
      try {
        trainer.fit();
      } catch (const fault::PreemptedError& e) {
        done_before_kill = static_cast<std::size_t>(e.tick() / 2);
      }
    }  // the leased node is gone; only the checkpoint store survives

    auto model = ml::make_model(ml::ModelType::Linear, mcfg);
    ml::Trainer trainer(*model, band_train, no_val, topt);
    const ml::TrainResult r = trainer.fit();
    const std::size_t recovered = total_batches - r.batches_run;
    const std::size_t lost = done_before_kill - recovered;
    engine.record_preempt_outcome(lost, recovered);

    preempt_table.add_row(
        {interval ? std::to_string(interval) +
                        (interval == 1 ? " batch" : " batches")
                  : "epoch end",
         util::TablePrinter::num(static_cast<long long>(tick)),
         util::TablePrinter::num(static_cast<long long>(lost)),
         util::TablePrinter::num(static_cast<long long>(recovered)),
         util::TablePrinter::num(static_cast<long long>(ckpts.saves())),
         util::TablePrinter::num(
             (metrics.counter_value("ckpt.save_bytes") - bytes0) / 1024.0,
             1)});
    last_timeline = engine.report().summary();
  }

  // --- Part 3: geo-sharded fleet serving through site partitions -----------
  //
  // Four shard workers alternate across the two Chameleon sites; a seeded
  // random plan partitions either site (note the topology: CHI@TACC is
  // reached THROUGH CHI@UC, so losing UC darkens the whole cloud). The
  // health monitor reroutes dead shards' cars to survivors, admission
  // control sheds overflow to the cars' own edge tier, and the report
  // attributes every degraded request to the car that paid for it and the
  // shard whose death forced the churn.
  std::cout << "\nServing a 4-shard fleet through seeded site partitions...\n";
  util::TablePrinter shard_table({"shard", "site", "requests", "completed",
                                  "shed", "failed over", "rerouted in",
                                  "downs"});
  std::string fleet_summary;
  std::string fleet_timeline;
  std::string shed_by_car_line;
  {
    util::EventQueue queue;
    net::Network fleet_net = testbed::chameleon_network();
    fault::ChaosEngine engine(queue, seed);
    engine.attach_network(fleet_net);
    engine.instrument(nullptr, &metrics);
    fault::RandomPlanOptions popt;
    popt.horizon_s = 0.8;
    popt.faults = 2;
    popt.mean_duration_s = 0.25;
    popt.partition_host = testbed::kSiteUC;
    popt.partition_hosts = {testbed::kSiteTACC};  // chaos picks per fault
    engine.inject_plan(engine.random_plan(popt));

    serve::ModelRegistry registry;
    registry.publish(std::shared_ptr<ml::DrivingModel>(
                         ml::make_model(ml::ModelType::Linear, mcfg)),
                     "chaos-study");
    serve::FleetOptions fopt;
    fopt.cars = 8;
    fopt.shards = 4;
    fopt.duration_s = 1.0;
    fopt.mean_interarrival_s = 0.005;
    fopt.batcher.max_batch = 8;
    fopt.batcher.max_delay_s = 0.01;
    fopt.placement = core::Placement::Cloud;
    fopt.seed = seed;
    fopt.continuum.metrics = &metrics;
    fopt.site_probe = [&fleet_net](const std::string& site, double) {
      return fleet_net.route(testbed::kCampusGateway, site).has_value();
    };
    serve::FleetService fleet(queue, registry, fopt);
    const serve::ServeReport fr = fleet.run();

    for (std::size_t s = 0; s < fr.shard_stats.size(); ++s) {
      const serve::ShardStats& st = fr.shard_stats[s];
      shard_table.add_row(
          {std::to_string(s), st.site,
           util::TablePrinter::num(static_cast<long long>(st.requests)),
           util::TablePrinter::num(static_cast<long long>(st.completed)),
           util::TablePrinter::num(static_cast<long long>(st.shed)),
           util::TablePrinter::num(static_cast<long long>(st.failed_over)),
           util::TablePrinter::num(static_cast<long long>(st.rerouted_in)),
           util::TablePrinter::num(static_cast<long long>(st.downs))});
    }
    shed_by_car_line = "Per-car shed counts:";
    for (std::size_t c = 0; c < fr.shed_by_car.size(); ++c) {
      shed_by_car_line +=
          " car-" + std::to_string(c) + "=" + std::to_string(fr.shed_by_car[c]);
    }
    fleet_summary = fr.summary() + "; " +
                    std::to_string(fr.requests - fr.completed - fr.shed) +
                    " failed";
    fleet_timeline = engine.report().summary();
  }

  // --- Part 4: federated rounds through dropouts and corrupt deltas --------
  //
  // Three cars fine-tune the incumbent on private slices of the band task
  // and ship CRC-framed weight deltas to the cloud aggregator. A seeded
  // random plan (client_dropout_hosts) knocks cars offline mid-round and a
  // scripted DeltaCorrupt flips bits in one upload; the round survives on
  // the quorum that remains, the corrupt delta lands in quarantine (never
  // the merge), and the dropped cars rejoin when their faults lift.
  std::cout << "\nFederating 3 cars through seeded dropouts + a corrupt "
               "delta...\n";
  std::string fed_summary;
  std::string fed_timeline;
  std::size_t fed_dropouts = 0, fed_dropout_recoveries = 0, fed_corrupts = 0;
  {
    util::EventQueue queue;
    net::Network fed_net;
    fed_net.add_host("cloud");
    for (int i = 1; i <= 3; ++i) {
      fed_net.add_host("car-0" + std::to_string(i));
      fed_net.add_duplex("car-0" + std::to_string(i), "cloud",
                         net::LinkSpec{});
    }
    net::TransferManager transfers{fed_net, queue, util::Rng(seed + 2), 2};
    objectstore::ObjectStore fed_blobs;
    serve::ReplicatedRegistry registry{2};
    registry.publish_all(std::shared_ptr<ml::DrivingModel>(
                             ml::make_model(ml::ModelType::Linear, mcfg)),
                         "bootstrap");

    fed::FedOptions fedopt;
    fedopt.rounds = 3;
    fedopt.round_timeout_s = 5.0;  // the whole study spans ~18 virtual s
    fedopt.cloud_host = "cloud";
    fedopt.canary.max_steering_drift = 0.5;
    fedopt.canary.bake_s = 1.0;
    fed::Aggregator agg(queue, registry, transfers, fed_blobs,
                        ml::ModelType::Linear, mcfg, fedopt);
    for (int i = 0; i < 3; ++i) {
      fed::ClientOptions copt;
      copt.name = "car-0" + std::to_string(i + 1);
      copt.seed = seed + 10 + i;
      // Private slices of the band task from Part 2.
      std::vector<ml::Sample> slice(band_train.begin() + i * 8,
                                    band_train.begin() + (i + 1) * 8);
      agg.add_client(copt, std::move(slice));
    }
    agg.set_probes({band_train.begin() + 80, band_train.begin() + 88});
    agg.instrument(nullptr, &metrics);

    fault::ChaosEngine engine(queue, seed);
    engine.attach_fed(agg.fault_hooks());
    engine.instrument(nullptr, &metrics);
    const double round_s = fedopt.round_timeout_s + fedopt.canary.bake_s;
    fault::RandomPlanOptions popt;
    popt.horizon_s = fedopt.rounds * round_s;
    popt.faults = 3;
    popt.mean_duration_s = 3.0;
    popt.client_dropout_hosts = {"car-01", "car-02", "car-03"};
    engine.inject_plan(engine.random_plan(popt));
    // One scripted outage pinned across round 2's start, so a car
    // visibly misses a whole round and rejoins for round 3 regardless of
    // where the seeded windows land.
    fault::FaultSpec outage;
    outage.kind = fault::FaultKind::ClientDropout;
    outage.at = round_s - 0.2;
    outage.duration = round_s - 0.4;  // lifts before round 3 starts
    outage.target = "car-02";
    engine.inject(outage);
    fault::FaultSpec corrupt;
    corrupt.kind = fault::FaultKind::DeltaCorrupt;
    corrupt.at = 0.0;  // armed before the first upload
    corrupt.target = "car-03";
    engine.inject(corrupt);

    const fed::FedReport fr = agg.run();
    fed_summary = fr.summary();
    fed_timeline = engine.report().summary();
    fed_dropouts = engine.report().count(fault::FaultKind::ClientDropout);
    fed_dropout_recoveries =
        engine.report().count(fault::FaultKind::ClientDropout, true);
    fed_corrupts = engine.report().count(fault::FaultKind::DeltaCorrupt);
  }

  tracer.use_clock({});  // the scenario queues are gone
  tracer.write_file("chaos_study.trace.json");

  std::cout << "\n";
  table.print(std::cout,
              "Hybrid placement under chaos (seed " + std::to_string(seed) +
                  ")");
  std::cout << "\nReading the table: the breaker converts each outage into"
               "\nedge-only steering instead of a stalled loop — cloud usage"
               "\ndips for roughly the degraded window, then the half-open"
               "\nprobes re-admit the cloud within a control period or two.\n";

  std::cout << "\n";
  preempt_table.print(std::cout,
                      "Work lost to a mid-fit lease kill vs checkpoint "
                      "interval (seed " +
                          std::to_string(seed) + ")");
  std::cout << "\nReading the table: every resumed fit finishes bitwise-"
               "\nidentically to an uninterrupted one; the interval only"
               "\ntrades re-run batches (recovery time) against checkpoint"
               "\nbytes shipped. Durable envelopes spill to ./checkpoints/."
               "\n\nLast run's fault timeline:\n"
            << last_timeline;
  std::cout << "\n";
  shard_table.print(std::cout,
                    "Geo-sharded fleet under seeded partitions (seed " +
                        std::to_string(seed) + ")");
  std::cout << shed_by_car_line << "\n"
            << fleet_summary
            << "\nReading the table: a dead shard's queued requests reroute"
               "\nto survivors (failed over -> rerouted in); arrivals that"
               "\nfind no live shard or a full survivor shed to their own"
               "\ncar's edge tier. Degraded, never failed.\n"
               "Fleet fault timeline:\n"
            << fleet_timeline;

  std::cout << "\nFederated rounds under chaos (seed " << seed << "):\n"
            << fed_summary << "Fault events this run: "
            << fed_dropouts << " ClientDropout injected, "
            << fed_dropout_recoveries << " lifted (cars rejoined), "
            << fed_corrupts << " DeltaCorrupt armed.\n"
            << "Reading the report: dropped cars miss their round and the"
               "\nquorum that remains still publishes; the corrupted delta is"
               "\nquarantined by its CRC envelope — it never reaches the merge"
               "\n— and its sender retries with backoff next round.\n"
               "Federation fault timeline:\n"
            << fed_timeline;

  std::cout << "\nWrote chaos_study.trace.json (" << tracer.size()
            << " events from the random-plan run) — open it at"
               "\nhttps://ui.perfetto.dev or chrome://tracing; see"
               "\ndocs/observability.md. Metrics across all three runs:\n"
            << metrics.summary();
  return 0;
}
