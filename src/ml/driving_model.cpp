#include "ml/driving_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "ml/conv.hpp"
#include "ml/layers.hpp"
#include "ml/loss.hpp"
#include "ml/lstm.hpp"
#include "ml/plan.hpp"
#include "util/binio.hpp"

namespace autolearn::ml {

const char* to_string(Precision precision) {
  return precision == Precision::Int8 ? "int8" : "fp32";
}

const char* to_string(ModelType type) {
  switch (type) {
    case ModelType::Linear: return "linear";
    case ModelType::Categorical: return "categorical";
    case ModelType::Inferred: return "inferred";
    case ModelType::Memory: return "memory";
    case ModelType::Rnn: return "rnn";
    case ModelType::Conv3d: return "3d";
  }
  return "?";
}

ModelType model_type_from_string(const std::string& name) {
  for (ModelType t : all_model_types()) {
    if (name == to_string(t)) return t;
  }
  throw std::invalid_argument("unknown model type: " + name);
}

std::vector<ModelType> all_model_types() {
  return {ModelType::Linear, ModelType::Memory, ModelType::Conv3d,
          ModelType::Categorical, ModelType::Inferred, ModelType::Rnn};
}

void DrivingModel::predict_batch(const Sample* obs, std::size_t n,
                                 Prediction* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = predict(obs[i]);
}

namespace {

/// Copies the last `t` frames of each of n samples into x, oldest first,
/// as [n, t, H, W] row-major: the layout of [n*t, 1, H, W] (time folded
/// into the batch for a shared encoder), of [n, 1, t, H, W] (time as the
/// Conv3D depth axis) and, at t = 1, of [n, 1, H, W]. Every frame is
/// checked against the model's geometry before it is copied, so a
/// mis-sized camera can never write past the end of x.
template <class SampleAt>
void stage_frames(std::size_t n, SampleAt sample, std::size_t t,
                  const ModelConfig& cfg, float* x) {
  const std::size_t frame = cfg.img_h * cfg.img_w;
  for (std::size_t i = 0; i < n; ++i) {
    const Sample& s = sample(i);
    if (s.frames.size() < t) {
      throw std::invalid_argument("sample: needs " + std::to_string(t) +
                                  " frame(s), has " +
                                  std::to_string(s.frames.size()));
    }
    for (std::size_t j = 0; j < t; ++j) {
      const camera::Image& img = s.frames[s.frames.size() - t + j];
      if (img.height() != cfg.img_h || img.width() != cfg.img_w) {
        throw std::invalid_argument("sample: frame size mismatch");
      }
      std::copy(img.pixels().begin(), img.pixels().end(),
                x + (i * t + j) * frame);
    }
  }
}

/// stage_frames into a fresh tensor for the training and eval forwards:
/// [n*t, 1, H, W], or [n, 1, t, H, W] with `depth` set.
Tensor frames_tensor(const std::vector<const Sample*>& batch,
                     const ModelConfig& cfg, std::size_t t = 1,
                     bool depth = false) {
  const std::size_t n = batch.size();
  Tensor x(depth ? std::vector<std::size_t>{n, 1, t, cfg.img_h, cfg.img_w}
                 : std::vector<std::size_t>{n * t, 1, cfg.img_h, cfg.img_w});
  stage_frames(
      n, [&](std::size_t i) -> const Sample& { return *batch[i]; }, t, cfg,
      x.data());
  return x;
}

/// Standard [steering, throttle] regression decode.
void decode_regression(const float* y, std::size_t n, Prediction* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = Prediction{std::clamp<double>(y[i * 2 + 0], -1, 1),
                        std::clamp<double>(y[i * 2 + 1], 0, 1)};
  }
}

Tensor targets_tensor(const std::vector<const Sample*>& batch) {
  Tensor y({batch.size(), 2});
  for (std::size_t i = 0; i < batch.size(); ++i) {
    y.at(i, 0) = batch[i]->steering;
    y.at(i, 1) = batch[i]->throttle;
  }
  return y;
}

/// Standard conv encoder for 24x32-class frames: three strided 3x3 convs.
void add_encoder(Sequential& net, util::Rng& rng) {
  net.add<Conv2D>(1, 8, 3, 2, rng);
  net.add<ReLU>();
  net.add<Conv2D>(8, 16, 3, 2, rng);
  net.add<ReLU>();
  net.add<Conv2D>(16, 32, 3, 2, rng);
  net.add<ReLU>();
  net.add<Flatten>();
}

std::size_t encoder_features(std::size_t img_h, std::size_t img_w) {
  auto conv = [](std::size_t d) { return Conv2D::out_dim(d, 3, 2); };
  const std::size_t h = conv(conv(conv(img_h)));
  const std::size_t w = conv(conv(conv(img_w)));
  return 32 * h * w;
}

/// Bin/unbin helpers for the categorical model (linear bins as in
/// donkeycar's linear_bin / linear_unbin utilities).
std::size_t to_bin(double v, double lo, double hi, std::size_t bins) {
  const double t = std::clamp((v - lo) / (hi - lo), 0.0, 1.0);
  return std::min(bins - 1,
                  static_cast<std::size_t>(std::lround(t * (bins - 1))));
}

double from_bin(std::size_t bin, double lo, double hi, std::size_t bins) {
  return lo + (hi - lo) * static_cast<double>(bin) /
                  static_cast<double>(bins - 1);
}

// ---------------------------------------------------------------------------

/// Shared plumbing: a Sequential net + Adam, (de)serialization, and the
/// compiled forward every prediction runs through.
class NetModel : public DrivingModel {
 public:
  explicit NetModel(const ModelConfig& cfg)
      : cfg_(cfg), rng_(cfg.seed), opt_(cfg.lr) {}

  /// Single-sample inference is the batched path at n = 1, so predict and
  /// predict_batch can never drift apart.
  Prediction predict(const Sample& obs) final {
    Prediction p;
    predict_batch(&obs, 1, &p);
    return p;
  }

  /// The one forward path: fit the plan to n, then the model's run_plan
  /// stages the batch, executes the plan and decodes.
  void predict_batch(const Sample* obs, std::size_t n,
                     Prediction* out) final {
    if (n == 0) return;
    run_plan(compiled(n), obs, n, out);
  }

  CompiledModel* plan() final { return &compiled(1); }

  std::size_t num_parameters() override {
    std::size_t n = 0;
    for (Sequential* s : nets()) n += s->num_parameters();
    return n;
  }
  std::uint64_t flops_per_sample() const override {
    return net_.flops_per_sample();
  }
  /// The caller may swap layers or rewrite parameters through these, so
  /// the plan (which holds raw layer and parameter pointers) is dropped.
  std::vector<Sequential*> mutable_nets() override {
    plan_.reset();
    return nets();
  }
  void save(std::ostream& os) override {
    for (Sequential* s : nets()) s->save_params(os);
  }
  void load(std::istream& is) override {
    plan_.reset();
    for (Sequential* s : nets()) s->load_params(is);
  }
  void save_full(std::ostream& os) override {
    for (Sequential* s : nets()) s->save_params(os);
    for (Sequential* s : nets()) s->save_state(os);
    opt_.save_state(os);
    util::write_rng_state(os, rng_.state());
  }
  void load_full(std::istream& is) override {
    plan_.reset();
    for (Sequential* s : nets()) s->load_params(is);
    for (Sequential* s : nets()) s->load_state(is);
    opt_.load_state(is);
    util::RngState st;
    if (!util::read_rng_state(is, st)) {
      throw ModelLoadError(ModelLoadError::Code::Truncated,
                           "DrivingModel: truncated RNG state");
    }
    rng_.set_state(st);
  }

 protected:
  /// Adds this model's nets to the plan, in nets() order, for batches up
  /// to `max_batch`.
  virtual void build_plan(CompiledModel& plan, std::size_t max_batch) = 0;

  /// Stages obs[0..n) into the plan's inputs, runs it and decodes out.
  virtual void run_plan(CompiledModel& plan, const Sample* obs,
                        std::size_t n, Prediction* out) = 0;

  /// Copies the last t frames of obs[0..n) into a plan input slot.
  void stage(const Sample* obs, std::size_t n, std::size_t t,
             float* x) const {
    stage_frames(
        n, [obs](std::size_t i) -> const Sample& { return obs[i]; }, t, cfg_,
        x);
  }

  /// Every Sequential the model owns, in parameter order. The memory/rnn
  /// models add their head here, which hoists all (de)serialization and
  /// parameter counting into NetModel.
  virtual std::vector<Sequential*> nets() { return {&net_}; }

  ModelConfig cfg_;
  util::Rng rng_;
  Sequential net_;
  Adam opt_;

 private:
  /// The plan, compiled on first use and recompiled at bit_ceil(n) when a
  /// batch outgrows its cap. Adam steps update parameters in place, so a
  /// plan stays valid across training; load and mutable_nets drop it.
  CompiledModel& compiled(std::size_t n) {
    if (!plan_ || n > plan_->max_batch()) {
      const std::size_t cap = std::bit_ceil(n);
      plan_.reset();  // free the old arena before sizing the new one
      auto plan = std::make_unique<CompiledModel>(cap);
      build_plan(*plan, cap);
      plan_ = std::move(plan);
    }
    return *plan_;
  }

  std::unique_ptr<CompiledModel> plan_;
};

// --- linear ----------------------------------------------------------------

class LinearModel : public NetModel {
 public:
  explicit LinearModel(const ModelConfig& cfg) : NetModel(cfg) {
    add_encoder(net_, rng_);
    const std::size_t f = encoder_features(cfg.img_h, cfg.img_w);
    net_.add<Dense>(f, 64, rng_);
    net_.add<ReLU>();
    net_.add<Dropout>(cfg.dropout, rng_.split());
    net_.add<Dense>(64, 2, rng_);
  }

  ModelType type() const override { return ModelType::Linear; }

  double train_batch(const std::vector<const Sample*>& batch) override {
    const Tensor pred = net_.forward(frames_tensor(batch, cfg_), true);
    auto [loss, grad] = mse_loss(pred, targets_tensor(batch));
    net_.backward(grad);
    opt_.step(net_.params());
    return loss;
  }

  double eval_batch(const std::vector<const Sample*>& batch) override {
    const Tensor pred = net_.forward(frames_tensor(batch, cfg_), false);
    return mse_loss(pred, targets_tensor(batch)).first;
  }

 protected:
  void build_plan(CompiledModel& plan, std::size_t max_batch) override {
    plan.add_net(net_, {1, cfg_.img_h, cfg_.img_w}, max_batch);
  }

  void run_plan(CompiledModel& plan, const Sample* obs, std::size_t n,
                Prediction* out) override {
    CompiledNet& net = plan.net(0);
    stage(obs, n, 1, net.input());
    decode_regression(net.run(n), n, out);
  }
};

// --- categorical -------------------------------------------------------------

class CategoricalModel : public NetModel {
 public:
  explicit CategoricalModel(const ModelConfig& cfg)
      : NetModel(cfg), ps_(cfg.steering_bins), pt_(cfg.throttle_bins) {
    add_encoder(net_, rng_);
    const std::size_t f = encoder_features(cfg.img_h, cfg.img_w);
    net_.add<Dense>(f, 64, rng_);
    net_.add<ReLU>();
    net_.add<Dropout>(cfg.dropout, rng_.split());
    net_.add<Dense>(64, cfg.steering_bins + cfg.throttle_bins, rng_);
  }

  ModelType type() const override { return ModelType::Categorical; }

  double train_batch(const std::vector<const Sample*>& batch) override {
    const Tensor logits = net_.forward(frames_tensor(batch, cfg_), true);
    Tensor grad(logits.shape());
    const double loss = heads_loss(logits, batch, grad);
    net_.backward(grad);
    opt_.step(net_.params());
    return loss;
  }

  double eval_batch(const std::vector<const Sample*>& batch) override {
    const Tensor logits = net_.forward(frames_tensor(batch, cfg_), false);
    Tensor grad(logits.shape());
    return heads_loss(logits, batch, grad);
  }

 protected:
  void build_plan(CompiledModel& plan, std::size_t max_batch) override {
    plan.add_net(net_, {1, cfg_.img_h, cfg_.img_w}, max_batch);
  }

  void run_plan(CompiledModel& plan, const Sample* obs, std::size_t n,
                Prediction* out) override {
    CompiledNet& net = plan.net(0);
    stage(obs, n, 1, net.input());
    const float* logits = net.run(n);
    const std::size_t stride = cfg_.steering_bins + cfg_.throttle_bins;
    for (std::size_t i = 0; i < n; ++i) {
      const float* row = logits + i * stride;
      softmax_into(row, 0, cfg_.steering_bins, ps_.data());
      softmax_into(row, cfg_.steering_bins, stride, pt_.data());
      const std::size_t sb = static_cast<std::size_t>(
          std::max_element(ps_.begin(), ps_.end()) - ps_.begin());
      const std::size_t tb = static_cast<std::size_t>(
          std::max_element(pt_.begin(), pt_.end()) - pt_.begin());
      out[i] = Prediction{from_bin(sb, -1, 1, cfg_.steering_bins),
                          from_bin(tb, 0, 1, cfg_.throttle_bins)};
    }
  }

 private:
  std::vector<float> ps_, pt_;  // per-head softmax scratch

  double heads_loss(const Tensor& logits,
                    const std::vector<const Sample*>& batch, Tensor& grad) {
    std::vector<std::size_t> steer_targets, throttle_targets;
    steer_targets.reserve(batch.size());
    throttle_targets.reserve(batch.size());
    for (const Sample* s : batch) {
      steer_targets.push_back(to_bin(s->steering, -1, 1, cfg_.steering_bins));
      throttle_targets.push_back(to_bin(s->throttle, 0, 1, cfg_.throttle_bins));
    }
    double loss = softmax_xent_slice(logits, 0, cfg_.steering_bins,
                                     steer_targets, grad);
    loss += softmax_xent_slice(logits, cfg_.steering_bins,
                               cfg_.steering_bins + cfg_.throttle_bins,
                               throttle_targets, grad);
    return loss;
  }
};

// --- inferred ----------------------------------------------------------------

class InferredModel : public NetModel {
 public:
  explicit InferredModel(const ModelConfig& cfg) : NetModel(cfg) {
    // Deliberately small: two convs, narrow head. Fast inference is the
    // point — it frees throttle budget in the control loop.
    net_.add<Conv2D>(1, 4, 3, 2, rng_);
    net_.add<ReLU>();
    net_.add<Conv2D>(4, 8, 3, 2, rng_);
    net_.add<ReLU>();
    net_.add<Flatten>();
    auto conv = [](std::size_t d) { return Conv2D::out_dim(d, 3, 2); };
    const std::size_t f = 8 * conv(conv(cfg.img_h)) * conv(conv(cfg.img_w));
    net_.add<Dense>(f, 16, rng_);
    net_.add<ReLU>();
    net_.add<Dense>(16, 1, rng_);
  }

  ModelType type() const override { return ModelType::Inferred; }

  double train_batch(const std::vector<const Sample*>& batch) override {
    const Tensor pred = net_.forward(frames_tensor(batch, cfg_), true);
    auto [loss, grad] = mse_loss(pred, steer_targets(batch));
    net_.backward(grad);
    opt_.step(net_.params());
    return loss;
  }

  double eval_batch(const std::vector<const Sample*>& batch) override {
    const Tensor pred = net_.forward(frames_tensor(batch, cfg_), false);
    return mse_loss(pred, steer_targets(batch)).first;
  }

 protected:
  void build_plan(CompiledModel& plan, std::size_t max_batch) override {
    plan.add_net(net_, {1, cfg_.img_h, cfg_.img_w}, max_batch);
  }

  void run_plan(CompiledModel& plan, const Sample* obs, std::size_t n,
                Prediction* out) override {
    CompiledNet& net = plan.net(0);
    stage(obs, n, 1, net.input());
    const float* y = net.run(n);  // one steering column
    for (std::size_t i = 0; i < n; ++i) out[i] = decode_steer(y[i]);
  }

 private:
  Prediction decode_steer(float raw) const {
    const double steer = std::clamp<double>(raw, -1, 1);
    // Throttle policy: full speed with the wheel straight, easing off as
    // the commanded steering grows.
    const double throttle = std::clamp(
        cfg_.inferred_throttle_base +
            cfg_.inferred_throttle_gain * (1.0 - std::abs(steer)),
        0.0, 1.0);
    return Prediction{steer, throttle};
  }

  static Tensor steer_targets(const std::vector<const Sample*>& batch) {
    Tensor y({batch.size(), 1});
    for (std::size_t i = 0; i < batch.size(); ++i) {
      y.at(i, 0) = batch[i]->steering;
    }
    return y;
  }
};

// --- memory -----------------------------------------------------------------

class MemoryModel : public NetModel {
 public:
  explicit MemoryModel(const ModelConfig& cfg) : NetModel(cfg) {
    add_encoder(net_, rng_);  // net_ is the encoder only
    features_ = encoder_features(cfg.img_h, cfg.img_w);
    hist_ = 2 * cfg.history_len;
    head_.add<Dense>(features_ + hist_, 64, rng_);
    head_.add<ReLU>();
    head_.add<Dense>(64, 2, rng_);
  }

  ModelType type() const override { return ModelType::Memory; }
  std::size_t history_len() const override { return cfg_.history_len; }

  double train_batch(const std::vector<const Sample*>& batch) override {
    const Tensor pred = forward(batch, /*train=*/true);
    auto [loss, grad] = mse_loss(pred, targets_tensor(batch));
    const Tensor grad_concat = head_.backward(grad);
    // Split: the first `features_` columns flow back into the encoder; the
    // history columns have no upstream parameters.
    const std::size_t n = batch.size();
    Tensor grad_feat({n, features_});
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < features_; ++k) {
        grad_feat.at(i, k) = grad_concat.at(i, k);
      }
    }
    net_.backward(grad_feat);
    auto params = net_.params();
    for (Param* p : head_.params()) params.push_back(p);
    opt_.step(params);
    return loss;
  }

  double eval_batch(const std::vector<const Sample*>& batch) override {
    const Tensor pred = forward(batch, /*train=*/false);
    return mse_loss(pred, targets_tensor(batch)).first;
  }

  std::uint64_t flops_per_sample() const override {
    return net_.flops_per_sample() + head_.flops_per_sample();
  }

 protected:
  std::vector<Sequential*> nets() override { return {&net_, &head_}; }

  void build_plan(CompiledModel& plan, std::size_t max_batch) override {
    plan.add_net(net_, {1, cfg_.img_h, cfg_.img_w}, max_batch);
    plan.add_net(head_, {features_ + hist_}, max_batch);
  }

  void run_plan(CompiledModel& plan, const Sample* obs, std::size_t n,
                Prediction* out) override {
    CompiledNet& enc = plan.net(0);
    CompiledNet& head = plan.net(1);
    stage(obs, n, 1, enc.input());
    concat_history(
        enc.run(n), n, [obs](std::size_t i) -> const Sample& { return obs[i]; },
        head.input());
    decode_regression(head.run(n), n, out);
  }

 private:
  Tensor forward(const std::vector<const Sample*>& batch, bool train) {
    const Tensor feats = net_.forward(frames_tensor(batch, cfg_), train);
    Tensor concat({batch.size(), features_ + hist_});
    concat_history(
        feats.data(), batch.size(),
        [&](std::size_t i) -> const Sample& { return *batch[i]; },
        concat.data());
    return head_.forward(concat, train);
  }

  /// Writes n head-input rows: the encoder features, then the sample's
  /// last hist_ history values.
  template <class SampleAt>
  void concat_history(const float* feats, std::size_t n, SampleAt sample,
                      float* concat) const {
    const std::size_t row = features_ + hist_;
    for (std::size_t i = 0; i < n; ++i) {
      const Sample& s = sample(i);
      if (s.history.size() < hist_) {
        throw std::invalid_argument("memory model: history too short");
      }
      std::copy(feats + i * features_, feats + (i + 1) * features_,
                concat + i * row);
      std::copy(s.history.end() - static_cast<std::ptrdiff_t>(hist_),
                s.history.end(), concat + i * row + features_);
    }
  }

  Sequential head_;
  std::size_t features_ = 0;
  std::size_t hist_ = 0;
};

// --- rnn ---------------------------------------------------------------------

class RnnModel : public NetModel {
 public:
  explicit RnnModel(const ModelConfig& cfg) : NetModel(cfg) {
    add_encoder(net_, rng_);  // shared per-frame encoder (time folded in N)
    features_ = encoder_features(cfg.img_h, cfg.img_w);
    head_.add<LSTM>(features_, 32, rng_);
    head_.add<Dense>(32, 2, rng_);
  }

  ModelType type() const override { return ModelType::Rnn; }
  std::size_t seq_len() const override { return cfg_.seq_len; }

  double train_batch(const std::vector<const Sample*>& batch) override {
    const Tensor pred = forward(batch, /*train=*/true);
    auto [loss, grad] = mse_loss(pred, targets_tensor(batch));
    const Tensor grad_seq = head_.backward(grad);  // [N, T, F]
    net_.backward(grad_seq.reshaped(
        {batch.size() * cfg_.seq_len, features_}));
    auto params = net_.params();
    for (Param* p : head_.params()) params.push_back(p);
    opt_.step(params);
    return loss;
  }

  double eval_batch(const std::vector<const Sample*>& batch) override {
    const Tensor pred = forward(batch, /*train=*/false);
    return mse_loss(pred, targets_tensor(batch)).first;
  }

  std::uint64_t flops_per_sample() const override {
    return cfg_.seq_len * net_.flops_per_sample() + head_.flops_per_sample();
  }

 protected:
  std::vector<Sequential*> nets() override { return {&net_, &head_}; }

  void build_plan(CompiledModel& plan, std::size_t max_batch) override {
    // Time is folded into the encoder's batch axis, so its row cap is
    // max_batch * seq_len; the LSTM head runs at max_batch rows.
    plan.add_net(net_, {1, cfg_.img_h, cfg_.img_w}, max_batch * cfg_.seq_len);
    plan.add_net(head_, {cfg_.seq_len, features_}, max_batch);
  }

  void run_plan(CompiledModel& plan, const Sample* obs, std::size_t n,
                Prediction* out) override {
    CompiledNet& enc = plan.net(0);
    stage(obs, n, cfg_.seq_len, enc.input());
    // Encoder output [n*T, F] is [n, T, F] in memory: the head consumes
    // it in place through the external-input overload.
    const float* feats = enc.run(n * cfg_.seq_len);
    decode_regression(plan.net(1).run(feats, n), n, out);
  }

 private:
  Tensor forward(const std::vector<const Sample*>& batch, bool train) {
    const Tensor feats =
        net_.forward(frames_tensor(batch, cfg_, cfg_.seq_len), train);
    return head_.forward(
        feats.reshaped({batch.size(), cfg_.seq_len, features_}), train);
  }

  Sequential head_;
  std::size_t features_ = 0;
};

// --- 3d ----------------------------------------------------------------------

class Conv3dModel : public NetModel {
 public:
  explicit Conv3dModel(const ModelConfig& cfg) : NetModel(cfg) {
    if (cfg.seq_len < 3) {
      throw std::invalid_argument("3d model: seq_len must be >= 3");
    }
    net_.add<Conv3D>(1, 8, 2, 3, 1, 2, rng_);
    net_.add<ReLU>();
    net_.add<Conv3D>(8, 16, 2, 3, 1, 2, rng_);
    net_.add<ReLU>();
    net_.add<Flatten>();
    auto conv = [](std::size_t d) { return Conv2D::out_dim(d, 3, 2); };
    const std::size_t od = cfg.seq_len - 2;  // two kd=2, sd=1 convs
    const std::size_t f = 16 * od * conv(conv(cfg.img_h)) * conv(conv(cfg.img_w));
    net_.add<Dense>(f, 32, rng_);
    net_.add<ReLU>();
    net_.add<Dense>(32, 2, rng_);
  }

  ModelType type() const override { return ModelType::Conv3d; }
  std::size_t seq_len() const override { return cfg_.seq_len; }

  double train_batch(const std::vector<const Sample*>& batch) override {
    const Tensor pred = net_.forward(stack(batch), /*train=*/true);
    auto [loss, grad] = mse_loss(pred, targets_tensor(batch));
    net_.backward(grad);
    opt_.step(net_.params());
    return loss;
  }

  double eval_batch(const std::vector<const Sample*>& batch) override {
    const Tensor pred = net_.forward(stack(batch), /*train=*/false);
    return mse_loss(pred, targets_tensor(batch)).first;
  }

 protected:
  void build_plan(CompiledModel& plan, std::size_t max_batch) override {
    plan.add_net(net_, {1, cfg_.seq_len, cfg_.img_h, cfg_.img_w}, max_batch);
  }

  void run_plan(CompiledModel& plan, const Sample* obs, std::size_t n,
                Prediction* out) override {
    CompiledNet& net = plan.net(0);
    stage(obs, n, cfg_.seq_len, net.input());
    decode_regression(net.run(n), n, out);
  }

 private:
  /// The last seq_len frames as the depth axis: [N, 1, T, H, W].
  Tensor stack(const std::vector<const Sample*>& batch) const {
    return frames_tensor(batch, cfg_, cfg_.seq_len, /*depth=*/true);
  }
};

}  // namespace

std::unique_ptr<DrivingModel> make_model(ModelType type,
                                         const ModelConfig& config) {
  switch (type) {
    case ModelType::Linear: return std::make_unique<LinearModel>(config);
    case ModelType::Categorical:
      return std::make_unique<CategoricalModel>(config);
    case ModelType::Inferred: return std::make_unique<InferredModel>(config);
    case ModelType::Memory: return std::make_unique<MemoryModel>(config);
    case ModelType::Rnn: return std::make_unique<RnnModel>(config);
    case ModelType::Conv3d: return std::make_unique<Conv3dModel>(config);
  }
  throw std::invalid_argument("make_model: bad type");
}

namespace {
// "ALMB": model-bundle magic.
constexpr std::uint32_t kBundleMagic = 0x424d4c41;
}  // namespace

void save_model_bundle(std::ostream& os, DrivingModel& model,
                       const ModelConfig& config) {
  util::write_pod(os, kBundleMagic);
  util::write_string(os, model.type_name());
  util::write_pod(os, static_cast<std::uint64_t>(config.img_w));
  util::write_pod(os, static_cast<std::uint64_t>(config.img_h));
  util::write_pod(os, static_cast<std::uint64_t>(config.seq_len));
  util::write_pod(os, static_cast<std::uint64_t>(config.history_len));
  util::write_pod(os, static_cast<std::uint64_t>(config.steering_bins));
  util::write_pod(os, static_cast<std::uint64_t>(config.throttle_bins));
  util::write_pod(os, config.lr);
  util::write_pod(os, config.dropout);
  util::write_pod(os, config.seed);
  util::write_pod(os, config.inferred_throttle_base);
  util::write_pod(os, config.inferred_throttle_gain);
  model.save_full(os);
}

LoadedModelBundle load_model_bundle(std::istream& is) {
  std::uint32_t magic = 0;
  if (!util::read_pod(is, magic)) {
    throw ModelLoadError(ModelLoadError::Code::Truncated,
                         "model bundle: empty stream");
  }
  if (magic != kBundleMagic) {
    throw ModelLoadError(ModelLoadError::Code::BadHeader,
                         "model bundle: bad magic");
  }
  std::string type_name;
  if (!util::read_string(is, type_name)) {
    throw ModelLoadError(ModelLoadError::Code::Truncated,
                         "model bundle: truncated type name");
  }
  ModelConfig cfg;
  auto read_size = [&is](std::size_t& dst) {
    std::uint64_t v = 0;
    if (!util::read_pod(is, v)) return false;
    dst = static_cast<std::size_t>(v);
    return true;
  };
  if (!read_size(cfg.img_w) || !read_size(cfg.img_h) ||
      !read_size(cfg.seq_len) || !read_size(cfg.history_len) ||
      !read_size(cfg.steering_bins) || !read_size(cfg.throttle_bins) ||
      !util::read_pod(is, cfg.lr) || !util::read_pod(is, cfg.dropout) ||
      !util::read_pod(is, cfg.seed) ||
      !util::read_pod(is, cfg.inferred_throttle_base) ||
      !util::read_pod(is, cfg.inferred_throttle_gain)) {
    throw ModelLoadError(ModelLoadError::Code::Truncated,
                         "model bundle: truncated config");
  }
  ModelType type;
  try {
    type = model_type_from_string(type_name);
  } catch (const std::invalid_argument&) {
    throw ModelLoadError(ModelLoadError::Code::BadHeader,
                         "model bundle: unknown model type '" + type_name +
                             "'");
  }
  LoadedModelBundle out;
  out.config = cfg;
  out.model = make_model(type, cfg);
  out.model->load_full(is);
  return out;
}

}  // namespace autolearn::ml
