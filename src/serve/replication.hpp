// Per-shard model replication with a gated canary rollout path.
//
// Every shard worker reads its own ModelRegistry replica, so a model push
// is a per-shard decision and a bad model's blast radius is configurable.
// publish_all() is the bootstrap/hot-swap path: the same model lands on
// every replica atomically (one shared snapshot each). publish_canary()
// is the careful path the trainer uses:
//
//   1. the candidate is published to the first `canary_shards` replicas
//      only (the canary slice), tagged "canary:<tag>";
//   2. after bake_s virtual seconds (scheduled on the caller's event
//      queue; immediate when bake_s == 0 or no queue is given) the gate
//      runs the candidate AND the incumbent over the probe set and
//      compares them: mean |steering| drift and the rate of non-finite /
//      out-of-actuator-range commands. Each model scores the probes in
//      slices no larger than its compiled batch cap, so the gate never
//      grows a served model's plan;
//   3. gate pass -> the candidate is promoted to the remaining shards
//      ("promoted:<tag>"); gate fail -> the slice is rolled back to the
//      incumbent model ("rollback:<tag>") and the rest of the fleet never
//      sees the candidate.
//
// The returned CanaryOutcome is shared state filled at gate time, so a
// simulation can fire the rollout mid-run and inspect the decision after
// the queue drains. Everything is deterministic: slice selection is by
// shard index, the gate is a pure function of the probe set.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/errors.hpp"
#include "serve/model_registry.hpp"
#include "util/event_queue.hpp"

namespace autolearn::serve {

struct CanaryOptions {
  /// Slice size: the candidate lands on shards [0, canary_shards) first.
  std::size_t canary_shards = 1;
  /// Gate: mean |candidate - incumbent| steering over the probe set must
  /// stay at or below this.
  double max_steering_drift = 0.25;
  /// Gate: fraction of probe commands that are non-finite or outside the
  /// actuator range (|steering| > 1.2, throttle outside [-0.2, 1.2]).
  double max_error_rate = 0.0;
  /// Virtual seconds the slice serves the candidate before the gate runs.
  double bake_s = 0.0;

  /// Appends every violation (prefix "canary.") without throwing.
  void check(ConfigIssues& out) const;
};

struct CanaryOutcome {
  bool decided = false;      // gate has run
  bool promoted = false;     // candidate reached the whole fleet
  bool rolled_back = false;  // slice reverted to the incumbent
  double steering_drift = 0.0;
  double error_rate = 0.0;
  std::uint64_t canary_version = 0;  // slice version during the bake
  std::vector<std::size_t> canary_shard_indices;
  std::string reason;  // human-readable gate verdict
};

class ReplicatedRegistry {
 public:
  explicit ReplicatedRegistry(std::size_t shards);

  std::size_t shards() const { return replicas_.size(); }
  ModelRegistry& shard(std::size_t index);
  const ModelRegistry& shard(std::size_t index) const;

  /// Appends one replica for a scaled-in shard and brings it level with
  /// the incumbents before it sees traffic: sinks wired and replica 0's
  /// current snapshot adopted (same model
  /// object, same version — publish_all stays convergent). Returns the
  /// new replica's index. Scale-down never removes replicas; a retired
  /// shard's replica idles and is re-leveled by the next grow.
  std::size_t add_replica();

  /// Re-levels an existing replica (a previously retired shard being
  /// readmitted): adopts replica 0's current snapshot when the replica
  /// has fallen behind. No-op when already level.
  void level_replica(std::size_t index);

  /// Wires sinks into every replica; replica i's publish instants carry
  /// the label "shard-i".
  void instrument(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  /// Publishes to every replica (bootstrap / ungated hot-swap). Returns
  /// the version the replicas agreed on; throws std::logic_error if the
  /// replicas have diverged (different next version).
  std::uint64_t publish_all(std::shared_ptr<ml::DrivingModel> model,
                            std::string tag = "");

  /// Gated rollout as documented above. `probes` must be non-empty and
  /// shaped for both models. Requires a previous publish (an incumbent).
  std::shared_ptr<const CanaryOutcome> publish_canary(
      std::shared_ptr<ml::DrivingModel> model, std::string tag,
      const CanaryOptions& options, std::vector<ml::Sample> probes,
      util::EventQueue* queue = nullptr);

  std::size_t promotions() const { return promotions_; }
  std::size_t rollbacks() const { return rollbacks_; }

 private:
  void decide(std::shared_ptr<ml::DrivingModel> model, std::string tag,
              CanaryOptions options, std::vector<ml::Sample> probes,
              std::shared_ptr<ModelSnapshot const> incumbent,
              std::shared_ptr<CanaryOutcome> outcome);

  std::vector<std::unique_ptr<ModelRegistry>> replicas_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::size_t promotions_ = 0;
  std::size_t rollbacks_ = 0;
};

}  // namespace autolearn::serve
