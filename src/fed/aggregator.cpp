#include "fed/aggregator.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace autolearn::fed {
namespace {

// Raw little-endian POD codec for the aggregator's checkpoint state.
// Matches the repo's other Checkpointable implementations: the bytes ride
// inside a CRC envelope, so framing errors surface as quarantine, and a
// short read here means a bug, not user input.
template <typename T>
void put_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T get_pod(std::istream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is) {
    throw std::runtime_error("fed: truncated aggregator checkpoint state");
  }
  return value;
}

void put_str(std::ostream& os, const std::string& s) {
  put_pod<std::uint64_t>(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string get_str(std::istream& is) {
  const auto n = get_pod<std::uint64_t>(is);
  std::string s(static_cast<std::size_t>(n), '\0');
  is.read(s.data(), static_cast<std::streamsize>(n));
  if (!is) {
    throw std::runtime_error("fed: truncated aggregator checkpoint state");
  }
  return s;
}

void put_client(std::ostream& os, const ClientRoundRecord& c) {
  put_str(os, c.client);
  put_pod<std::uint8_t>(os, static_cast<std::uint8_t>(c.outcome));
  put_pod<std::uint64_t>(os, c.examples);
  put_pod<double>(os, c.backoff_s);
  put_pod<double>(os, c.upload_start_s);
  put_pod<double>(os, c.committed_s);
  put_str(os, c.detail);
}

ClientRoundRecord get_client(std::istream& is) {
  ClientRoundRecord c;
  c.client = get_str(is);
  c.outcome = static_cast<ClientOutcome>(get_pod<std::uint8_t>(is));
  c.examples = get_pod<std::uint64_t>(is);
  c.backoff_s = get_pod<double>(is);
  c.upload_start_s = get_pod<double>(is);
  c.committed_s = get_pod<double>(is);
  c.detail = get_str(is);
  return c;
}

void put_round(std::ostream& os, const RoundRecord& r) {
  put_pod<std::uint64_t>(os, r.round);
  put_pod<double>(os, r.started_s);
  put_pod<double>(os, r.cutoff_s);
  put_pod<double>(os, r.finished_s);
  put_pod<std::uint64_t>(os, r.base_version);
  put_pod<std::uint64_t>(os, r.published_version);
  put_pod<std::uint8_t>(os, r.quorum_met ? 1 : 0);
  put_pod<std::uint8_t>(os, r.promoted ? 1 : 0);
  put_pod<std::uint8_t>(os, r.rolled_back ? 1 : 0);
  put_pod<std::uint64_t>(os, r.accepted);
  put_pod<std::uint64_t>(os, r.total_examples);
  put_pod<std::uint64_t>(os, r.clients.size());
  for (const ClientRoundRecord& c : r.clients) put_client(os, c);
}

RoundRecord get_round(std::istream& is) {
  RoundRecord r;
  r.round = get_pod<std::uint64_t>(is);
  r.started_s = get_pod<double>(is);
  r.cutoff_s = get_pod<double>(is);
  r.finished_s = get_pod<double>(is);
  r.base_version = get_pod<std::uint64_t>(is);
  r.published_version = get_pod<std::uint64_t>(is);
  r.quorum_met = get_pod<std::uint8_t>(is) != 0;
  r.promoted = get_pod<std::uint8_t>(is) != 0;
  r.rolled_back = get_pod<std::uint8_t>(is) != 0;
  r.accepted = static_cast<std::size_t>(get_pod<std::uint64_t>(is));
  r.total_examples = get_pod<std::uint64_t>(is);
  const auto n = get_pod<std::uint64_t>(is);
  r.clients.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) r.clients.push_back(get_client(is));
  return r;
}

constexpr std::uint32_t kStateVersion = 1;

}  // namespace

void FedOptions::validate() const {
  if (rounds == 0) {
    throw std::invalid_argument("fed: rounds must be >= 1");
  }
  if (!std::isfinite(round_timeout_s) || round_timeout_s <= 0) {
    throw std::invalid_argument("fed: round_timeout_s must be positive");
  }
  if (!std::isfinite(quorum_frac) || quorum_frac <= 0 || quorum_frac > 1) {
    throw std::invalid_argument("fed: quorum_frac must be in (0, 1]");
  }
  if (!std::isfinite(server_lr) || server_lr <= 0) {
    throw std::invalid_argument("fed: server_lr must be positive");
  }
  if (!std::isfinite(retry_backoff_s) || retry_backoff_s < 0) {
    throw std::invalid_argument("fed: retry_backoff_s must be >= 0");
  }
  if (!std::isfinite(backoff_mult) || backoff_mult < 1) {
    throw std::invalid_argument("fed: backoff_mult must be >= 1");
  }
  if (!std::isfinite(max_backoff_s) || max_backoff_s < retry_backoff_s) {
    throw std::invalid_argument("fed: max_backoff_s must be >= retry_backoff_s");
  }
  if (!std::isfinite(upload_jitter_s) || upload_jitter_s < 0) {
    throw std::invalid_argument("fed: upload_jitter_s must be >= 0");
  }
  if (cloud_host.empty()) {
    throw std::invalid_argument("fed: cloud_host must be non-empty");
  }
  if (delta_container.empty() || state_container.empty() ||
      ckpt_key.empty()) {
    throw std::invalid_argument(
        "fed: delta_container/state_container/ckpt_key must be non-empty");
  }
  if (canary_gate) serve::require_valid(canary);
}

Aggregator::Aggregator(util::EventQueue& queue,
                       serve::ReplicatedRegistry& registry,
                       net::TransferManager& transfers,
                       objectstore::ObjectStore& store, ml::ModelType type,
                       ml::ModelConfig config, FedOptions options)
    : queue_(queue),
      registry_(registry),
      transfers_(transfers),
      objects_(store),
      type_(type),
      config_(config),
      options_(std::move(options)),
      rng_(options_.seed) {
  options_.validate();
  ckpt::StoreOptions so;
  so.container = options_.state_container;
  state_store_ = std::make_unique<ckpt::CheckpointStore>(objects_, so);
}

std::string Aggregator::delta_key(std::size_t client) const {
  return "fed/" + clients_[client]->name() + "/delta";
}

std::size_t Aggregator::add_client(ClientOptions copts,
                                   std::vector<ml::Sample> slice) {
  for (const auto& existing : clients_) {
    if (existing->name() == copts.name) {
      throw std::invalid_argument("fed: duplicate client name " + copts.name);
    }
  }
  const std::size_t index = clients_.size();
  clients_.push_back(std::make_unique<EdgeClient>(std::move(copts), type_,
                                                  config_, std::move(slice)));

  ckpt::StoreOptions so;
  so.container = options_.delta_container;
  auto store = std::make_unique<ckpt::CheckpointStore>(objects_, so);
  store->use_transfer(transfers_, clients_[index]->name(),
                      options_.cloud_host);
  store->instrument(tracer_, metrics_);
  // Timestamps the landing on the virtual clock and meters shipped bytes.
  // A delta landing after its round's cutoff (stale epoch) still counts as
  // shipped bytes but never back-fills a later round's record.
  store->set_commit_hook([this, index](const std::string& key,
                                       std::uint64_t generation,
                                       std::size_t bytes) {
    report_.delta_bytes_shipped += bytes;
    if (metrics_) {
      metrics_->counter("fed.delta.bytes").inc(static_cast<double>(bytes));
    }
    if (index >= record_.clients.size()) return;
    for (const ckpt::GenerationInfo& g : delta_stores_[index]->manifest(key)) {
      if (g.generation == generation && g.info.epoch == record_.round) {
        record_.clients[index].committed_s = queue_.now();
      }
    }
  });
  delta_stores_.push_back(std::move(store));
  down_.push_back(0);
  failure_streak_.push_back(0);
  return index;
}

void Aggregator::set_probes(std::vector<ml::Sample> probes) {
  probes_ = std::move(probes);
}

void Aggregator::instrument(obs::Tracer* tracer,
                            obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  metrics_ = metrics;
  state_store_->instrument(tracer, metrics);
  for (auto& store : delta_stores_) store->instrument(tracer, metrics);
}

void Aggregator::set_preemption(fault::PreemptionToken* token) {
  preempt_ = token;
}

fault::FedHooks Aggregator::fault_hooks() {
  fault::FedHooks hooks;
  hooks.client_state = [this](const std::string& client, bool down) {
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      if (clients_[i]->name() == client) down_[i] = down ? 1 : 0;
    }
  };
  hooks.corrupt_next_delta = [this](const std::string& client) {
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      if (clients_[i]->name() == client) {
        delta_stores_[i]->corrupt_next_upload();
      }
    }
  };
  return hooks;
}

double Aggregator::backoff_s(std::size_t client) const {
  const std::uint32_t streak = failure_streak_[client];
  if (streak == 0 || options_.retry_backoff_s == 0) return 0.0;
  const double raw = options_.retry_backoff_s *
                     std::pow(options_.backoff_mult,
                              static_cast<double>(streak - 1));
  return std::min(raw, options_.max_backoff_s);
}

void Aggregator::preempt_tick() {
  if (preempt_ && preempt_->tick()) {
    throw fault::PreemptedError(
        preempt_->ticks(),
        "fed aggregator preempted mid-merge (lease expired)");
  }
}

void Aggregator::checkpoint() {
  ckpt::CheckpointInfo info;
  info.epoch = round_index_ + 1;
  info.step = merged_prefix_;
  info.seed = options_.seed;
  ckpt::save_checkpoint(*state_store_, options_.ckpt_key, *this, info);
}

FedReport Aggregator::run() {
  if (clients_.empty()) {
    throw std::logic_error("fed: add_client before run()");
  }
  if (options_.canary_gate && probes_.empty()) {
    throw std::logic_error("fed: canary gate needs probes (set_probes)");
  }

  const bool resumed =
      ckpt::restore_checkpoint(*state_store_, options_.ckpt_key, *this);
  if (resumed) {
    if (metrics_) metrics_->counter("fed.resumes").inc();
    if (tracer_) {
      util::Json args = util::Json::object();
      args.set("round", util::Json(round_index_ + 1));
      args.set("mid_merge", util::Json(phase_ == Phase::Merge));
      args.set("merged_prefix", util::Json(merged_prefix_));
      tracer_->instant("fed.resume", "fed", std::move(args));
    }
  }

  while (round_index_ < options_.rounds) {
    if (phase_ == Phase::Collect) {
      collect_and_cutoff();
      if (!record_.quorum_met) {
        record_.finished_s = queue_.now();
        finalize_round();
        continue;
      }
      phase_ = Phase::Merge;
      acc_.assign(static_cast<std::size_t>(expected_params_), 0.0);
      weight_so_far_ = 0;
      merged_prefix_ = 0;
      checkpoint();  // merge entry point: resume repeats no collect work
    }
    merge_round();
    publish_round();
    finalize_round();
  }
  return report_;
}

void Aggregator::collect_and_cutoff() {
  const double t0 = queue_.now();
  const auto snapshot = registry_.shard(0).current();
  if (!snapshot) {
    throw std::logic_error(
        "fed: bootstrap-publish a model (publish_all) before run()");
  }
  // num_parameters() counts the same parameters as param_count() without
  // going through mutable_nets(), which would drop the served model's
  // compiled plan every round.
  expected_params_ = snapshot->model->num_parameters();

  record_ = RoundRecord{};
  record_.round = round_index_ + 1;
  record_.started_s = t0;
  record_.cutoff_s = t0 + options_.round_timeout_s;
  record_.base_version = snapshot->version;
  record_.clients.resize(clients_.size());

  std::vector<char> participant(clients_.size(), 0);
  std::vector<std::size_t> fail_base(clients_.size(), 0);

  for (std::size_t i = 0; i < clients_.size(); ++i) {
    ClientRoundRecord& c = record_.clients[i];
    c.client = clients_[i]->name();
    c.backoff_s = backoff_s(i);
    if (down_[i]) {
      c.outcome = ClientOutcome::Dropout;
      c.detail = "offline at round start";
      continue;
    }
    participant[i] = 1;
    c.outcome = ClientOutcome::Straggler;  // provisional until the scan

    EdgeClient::LocalUpdate update = clients_[i]->compute_update(
        *snapshot->model, snapshot->version, record_.round);
    const double jitter = rng_.uniform(0.0, options_.upload_jitter_s);
    const double at = t0 + c.backoff_s + update.compute_s + jitter;
    c.upload_start_s = at;
    fail_base[i] = delta_stores_[i]->upload_failures();

    std::string payload = encode_delta(update.delta);
    const std::uint64_t round = record_.round;
    queue_.schedule_at(at, [this, i, round,
                            payload = std::move(payload)]() mutable {
      if (record_.round != round) return;  // round moved on; stale upload
      ClientRoundRecord& cr = record_.clients[i];
      if (down_[i]) {
        cr.outcome = ClientOutcome::Dropout;
        cr.detail = "went offline before the upload";
        cr.upload_start_s = -1.0;
        return;
      }
      ckpt::CheckpointInfo info;
      info.epoch = round;
      info.seed = options_.seed;
      info.note = "fed.delta";
      delta_stores_[i]->save(delta_key(i), payload, info);
    });
  }

  queue_.run_until(record_.cutoff_s);

  std::size_t participants = 0;
  for (const char p : participant) participants += p ? 1 : 0;

  accepted_.clear();
  std::uint64_t total_examples = 0;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    if (!participant[i]) continue;
    ClientRoundRecord& c = record_.clients[i];

    // load_latest quarantines corrupt generations as a side effect, so the
    // manifest scan below sees this round's torn/bit-flipped uploads.
    const auto loaded = delta_stores_[i]->load_latest(delta_key(i));
    bool quarantined_round = false;
    for (const ckpt::GenerationInfo& g :
         delta_stores_[i]->manifest(delta_key(i))) {
      if (g.quarantined && g.info.epoch == record_.round) {
        quarantined_round = true;
      }
    }
    const bool fresh =
        loaded && loaded->generation.info.epoch == record_.round;

    if (fresh) {
      try {
        const WeightDelta d = decode_delta(loaded->payload);
        validate_delta(d, static_cast<std::size_t>(expected_params_));
        c.outcome = ClientOutcome::Accepted;
        c.examples = d.examples;
        c.detail.clear();
        AcceptedEntry entry;
        entry.client = static_cast<std::uint32_t>(i);
        entry.examples = d.examples;
        entry.generation = loaded->generation.generation;
        accepted_.push_back(entry);
        total_examples += d.examples;
      } catch (const DeltaError& e) {
        // Survived the CRC but failed structural/finiteness validation:
        // the second fence. Never merged.
        c.outcome = ClientOutcome::Quarantined;
        c.detail = e.what();
      }
    } else if (quarantined_round) {
      c.outcome = ClientOutcome::Quarantined;
      c.detail = "delta failed the CRC envelope; retrying with backoff";
    } else if (c.outcome == ClientOutcome::Dropout) {
      // Went down before its upload fired; detail set by the upload event.
    } else if (down_[i]) {
      c.outcome = ClientOutcome::Dropout;
      c.detail = "went offline mid-round";
    } else if (delta_stores_[i]->upload_failures() > fail_base[i]) {
      c.outcome = ClientOutcome::TransferFailed;
      c.detail = "transfer attempts exhausted";
    } else {
      c.outcome = ClientOutcome::Straggler;
      c.detail = "missed the cutoff";
    }
  }

  record_.accepted = accepted_.size();
  record_.total_examples = total_examples;
  const auto need = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(
             options_.quorum_frac * static_cast<double>(participants))));
  record_.quorum_met = participants > 0 && accepted_.size() >= need;

  if (tracer_) {
    util::Json args = util::Json::object();
    args.set("round", util::Json(record_.round));
    args.set("participants", util::Json(std::uint64_t{participants}));
    args.set("accepted", util::Json(std::uint64_t{record_.accepted}));
    args.set("quorum_met", util::Json(record_.quorum_met));
    tracer_->instant("fed.cutoff", "fed", std::move(args));
  }
}

void Aggregator::merge_round() {
  while (merged_prefix_ < accepted_.size()) {
    preempt_tick();  // armed kill lands here, before the step checkpoints
    const AcceptedEntry& e = accepted_[merged_prefix_];
    const auto loaded =
        delta_stores_[e.client]->load_latest(delta_key(e.client));
    if (!loaded || loaded->generation.generation != e.generation) {
      throw std::logic_error("fed: accepted delta vanished before merge");
    }
    const WeightDelta d = decode_delta(loaded->payload);

    // Running weighted mean: checkpointable after every step, and exactly
    // equal to sum(w_i * d_i) / sum(w_i) once the prefix is complete.
    const double w = static_cast<double>(e.examples);
    const double total = static_cast<double>(weight_so_far_) + w;
    const double keep = static_cast<double>(weight_so_far_) / total;
    const double add = w / total;
    for (std::size_t j = 0; j < acc_.size(); ++j) {
      acc_[j] = acc_[j] * keep + static_cast<double>(d.values[j]) * add;
    }
    weight_so_far_ += e.examples;
    ++merged_prefix_;
    if (metrics_) metrics_->counter("fed.merge.steps").inc();
    checkpoint();  // durable: a kill now loses zero merged work
  }
  preempt_tick();  // pre-publish kill point; resume re-publishes
}

void Aggregator::publish_round() {
  const auto snapshot = registry_.shard(0).current();
  if (!snapshot || snapshot->version != record_.base_version) {
    throw std::logic_error("fed: registry moved under the aggregator "
                           "mid-round; resume requires the same incumbent");
  }

  std::unique_ptr<ml::DrivingModel> merged = ml::make_model(type_, config_);
  {
    std::stringstream weights;
    snapshot->model->save(weights);
    merged->load(weights);
  }
  std::vector<float> step(acc_.size());
  for (std::size_t j = 0; j < acc_.size(); ++j) {
    step[j] = static_cast<float>(options_.server_lr * acc_[j]);
  }
  add_scaled(*merged, step, 1.0f);
  std::shared_ptr<ml::DrivingModel> candidate(std::move(merged));
  const std::string tag = "fed-round-" + std::to_string(record_.round);

  if (options_.canary_gate) {
    const auto outcome = registry_.publish_canary(
        std::move(candidate), tag, options_.canary, probes_, &queue_);
    if (options_.canary.bake_s > 0) {
      queue_.run_until(queue_.now() + options_.canary.bake_s);
    }
    if (!outcome->decided) {
      throw std::logic_error("fed: canary gate never decided");
    }
    record_.promoted = outcome->promoted;
    record_.rolled_back = outcome->rolled_back;
    record_.published_version =
        outcome->promoted ? registry_.shard(0).version() : 0;
  } else {
    record_.published_version =
        registry_.publish_all(std::move(candidate), tag);
    record_.promoted = true;
  }
  record_.finished_s = queue_.now();

  if (tracer_) {
    util::Json args = util::Json::object();
    args.set("round", util::Json(record_.round));
    args.set("promoted", util::Json(record_.promoted));
    args.set("rolled_back", util::Json(record_.rolled_back));
    args.set("version", util::Json(record_.published_version));
    tracer_->instant("fed.publish", "fed", std::move(args));
  }
}

void Aggregator::finalize_round() {
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    switch (record_.clients[i].outcome) {
      case ClientOutcome::Accepted:
        failure_streak_[i] = 0;
        ++report_.deltas_accepted;
        break;
      case ClientOutcome::Straggler:
        ++report_.stragglers;
        break;
      case ClientOutcome::Dropout:
        ++report_.dropouts;
        break;
      case ClientOutcome::TransferFailed:
        ++failure_streak_[i];
        ++report_.transfer_failures;
        break;
      case ClientOutcome::Quarantined:
        ++failure_streak_[i];
        ++report_.deltas_quarantined;
        break;
    }
  }
  if (!record_.quorum_met) {
    ++report_.rounds_no_quorum;
  } else if (record_.rolled_back) {
    ++report_.rounds_rolled_back;
  } else if (record_.promoted) {
    ++report_.rounds_published;
  }

  if (metrics_) {
    metrics_->counter("fed.rounds").inc();
    if (record_.quorum_met) {
      metrics_->counter(record_.rolled_back ? "fed.rounds.rolled_back"
                                            : "fed.rounds.published")
          .inc();
    } else {
      metrics_->counter("fed.rounds.no_quorum").inc();
    }
    metrics_->counter("fed.deltas.accepted")
        .inc(static_cast<double>(record_.accepted));
    metrics_->gauge("fed.round.examples")
        .set(static_cast<double>(record_.total_examples));
  }
  if (tracer_) {
    util::Json args = util::Json::object();
    args.set("round", util::Json(record_.round));
    args.set("base_version", util::Json(record_.base_version));
    args.set("published_version", util::Json(record_.published_version));
    args.set("accepted", util::Json(std::uint64_t{record_.accepted}));
    args.set("quorum_met", util::Json(record_.quorum_met));
    args.set("promoted", util::Json(record_.promoted));
    args.set("rolled_back", util::Json(record_.rolled_back));
    tracer_->complete("fed.round", "fed", record_.started_s,
                      record_.finished_s, std::move(args));
  }

  report_.rounds.push_back(record_);
  record_ = RoundRecord{};
  accepted_.clear();
  acc_.clear();
  weight_so_far_ = 0;
  merged_prefix_ = 0;
  phase_ = Phase::Collect;
  ++round_index_;
  checkpoint();  // round boundary: a later kill resumes into the next round
}

void Aggregator::save_state(std::ostream& os) {
  put_pod<std::uint32_t>(os, kStateVersion);
  const util::RngState rs = rng_.state();
  for (const std::uint64_t word : rs.s) put_pod<std::uint64_t>(os, word);
  put_pod<double>(os, rs.cached_normal);
  put_pod<std::uint8_t>(os, rs.has_cached_normal ? 1 : 0);

  put_pod<std::uint64_t>(os, round_index_);
  put_pod<std::uint8_t>(os, static_cast<std::uint8_t>(phase_));
  put_pod<std::uint64_t>(os, expected_params_);
  put_pod<std::uint64_t>(os, weight_so_far_);
  put_pod<std::uint64_t>(os, merged_prefix_);

  put_pod<std::uint64_t>(os, accepted_.size());
  for (const AcceptedEntry& e : accepted_) {
    put_pod<std::uint32_t>(os, e.client);
    put_pod<std::uint64_t>(os, e.examples);
    put_pod<std::uint64_t>(os, e.generation);
  }
  put_pod<std::uint64_t>(os, acc_.size());
  for (const double v : acc_) put_pod<double>(os, v);
  put_pod<std::uint64_t>(os, failure_streak_.size());
  for (const std::uint32_t s : failure_streak_) put_pod<std::uint32_t>(os, s);

  put_round(os, record_);

  put_pod<std::uint64_t>(os, report_.rounds.size());
  for (const RoundRecord& r : report_.rounds) put_round(os, r);
  put_pod<std::uint64_t>(os, report_.rounds_published);
  put_pod<std::uint64_t>(os, report_.rounds_rolled_back);
  put_pod<std::uint64_t>(os, report_.rounds_no_quorum);
  put_pod<std::uint64_t>(os, report_.deltas_accepted);
  put_pod<std::uint64_t>(os, report_.deltas_quarantined);
  put_pod<std::uint64_t>(os, report_.stragglers);
  put_pod<std::uint64_t>(os, report_.dropouts);
  put_pod<std::uint64_t>(os, report_.transfer_failures);
  put_pod<std::uint64_t>(os, report_.delta_bytes_shipped);
}

void Aggregator::load_state(std::istream& is) {
  const auto version = get_pod<std::uint32_t>(is);
  if (version != kStateVersion) {
    throw std::runtime_error("fed: aggregator state from a future format");
  }
  util::RngState rs;
  for (std::uint64_t& word : rs.s) word = get_pod<std::uint64_t>(is);
  rs.cached_normal = get_pod<double>(is);
  rs.has_cached_normal = get_pod<std::uint8_t>(is) != 0;
  rng_.set_state(rs);

  round_index_ = get_pod<std::uint64_t>(is);
  phase_ = static_cast<Phase>(get_pod<std::uint8_t>(is));
  expected_params_ = get_pod<std::uint64_t>(is);
  weight_so_far_ = get_pod<std::uint64_t>(is);
  merged_prefix_ = get_pod<std::uint64_t>(is);

  accepted_.clear();
  const auto n_accepted = get_pod<std::uint64_t>(is);
  for (std::uint64_t i = 0; i < n_accepted; ++i) {
    AcceptedEntry e;
    e.client = get_pod<std::uint32_t>(is);
    e.examples = get_pod<std::uint64_t>(is);
    e.generation = get_pod<std::uint64_t>(is);
    accepted_.push_back(e);
  }
  acc_.clear();
  const auto n_acc = get_pod<std::uint64_t>(is);
  for (std::uint64_t i = 0; i < n_acc; ++i) {
    acc_.push_back(get_pod<double>(is));
  }
  failure_streak_.clear();
  const auto n_streak = get_pod<std::uint64_t>(is);
  for (std::uint64_t i = 0; i < n_streak; ++i) {
    failure_streak_.push_back(get_pod<std::uint32_t>(is));
  }
  if (failure_streak_.size() != clients_.size()) {
    throw std::runtime_error(
        "fed: aggregator checkpoint was written for a different client set");
  }

  record_ = get_round(is);

  report_ = FedReport{};
  const auto n_rounds = get_pod<std::uint64_t>(is);
  for (std::uint64_t i = 0; i < n_rounds; ++i) {
    report_.rounds.push_back(get_round(is));
  }
  report_.rounds_published =
      static_cast<std::size_t>(get_pod<std::uint64_t>(is));
  report_.rounds_rolled_back =
      static_cast<std::size_t>(get_pod<std::uint64_t>(is));
  report_.rounds_no_quorum =
      static_cast<std::size_t>(get_pod<std::uint64_t>(is));
  report_.deltas_accepted =
      static_cast<std::size_t>(get_pod<std::uint64_t>(is));
  report_.deltas_quarantined =
      static_cast<std::size_t>(get_pod<std::uint64_t>(is));
  report_.stragglers = static_cast<std::size_t>(get_pod<std::uint64_t>(is));
  report_.dropouts = static_cast<std::size_t>(get_pod<std::uint64_t>(is));
  report_.transfer_failures =
      static_cast<std::size_t>(get_pod<std::uint64_t>(is));
  report_.delta_bytes_shipped = get_pod<std::uint64_t>(is);
}

}  // namespace autolearn::fed
