#include "serve/model_registry.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

namespace autolearn::serve {

std::uint64_t ModelRegistry::publish(std::shared_ptr<ml::DrivingModel> model,
                                     std::string tag) {
  if (!model) {
    throw std::invalid_argument("ModelRegistry::publish: null model");
  }
  auto snap = std::make_shared<ModelSnapshot>();
  snap->model = std::move(model);
  snap->tag = std::move(tag);
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap->version = next_version_++;
    snapshot_ = std::move(snap);
  }
  const auto current = this->current();
  if (metrics_) metrics_->counter("serve.model.publishes").inc();
  if (tracer_) {
    util::Json args = util::Json::object();
    args.set("version", util::Json(current->version));
    args.set("tag", util::Json(current->tag));
    args.set("model", util::Json(std::string(current->model->type_name())));
    if (!label_.empty()) args.set("registry", util::Json(label_));
    tracer_->instant("serve.model_swap", "serve", std::move(args));
  }
  return current->version;
}

void ModelRegistry::adopt(std::shared_ptr<const ModelSnapshot> snapshot) {
  if (!snapshot || !snapshot->model) {
    throw std::invalid_argument("ModelRegistry::adopt: null snapshot");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot_ = snapshot;
    if (next_version_ <= snapshot->version) {
      next_version_ = snapshot->version + 1;
    }
  }
  if (metrics_) metrics_->counter("serve.model.adoptions").inc();
  if (tracer_) {
    util::Json args = util::Json::object();
    args.set("version", util::Json(snapshot->version));
    args.set("tag", util::Json(snapshot->tag));
    args.set("model", util::Json(std::string(snapshot->model->type_name())));
    if (!label_.empty()) args.set("registry", util::Json(label_));
    tracer_->instant("serve.model_adopt", "serve", std::move(args));
  }
}

std::shared_ptr<const ModelSnapshot> ModelRegistry::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

std::uint64_t ModelRegistry::version() const {
  const auto snap = current();
  return snap ? snap->version : 0;
}

std::size_t ModelRegistry::swaps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_version_ > 2 ? static_cast<std::size_t>(next_version_ - 2) : 0;
}

std::optional<std::uint64_t> ModelRegistry::checkpoint_current(
    ckpt::CheckpointStore& store, const std::string& key,
    const ml::ModelConfig& config) {
  const auto snap = current();
  if (!snap) return std::nullopt;
  std::ostringstream bundle;
  ml::save_model_bundle(bundle, *snap->model, config);
  ckpt::CheckpointInfo info;
  info.epoch = snap->version;
  info.seed = config.seed;
  info.note = std::string("model-bundle:") + snap->model->type_name();
  return store.save(key, bundle.str(), info);
}

std::optional<std::uint64_t> ModelRegistry::warm_start(
    ckpt::CheckpointStore& store, const std::string& key) {
  auto loaded = store.load_latest(key);
  if (!loaded) return std::nullopt;
  std::istringstream bundle(loaded->payload);
  ml::LoadedModelBundle restored = ml::load_model_bundle(bundle);
  return publish(std::move(restored.model),
                 "warm-start:gen-" +
                     std::to_string(loaded->generation.generation));
}

}  // namespace autolearn::serve
