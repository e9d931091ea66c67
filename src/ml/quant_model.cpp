#include "ml/quant_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ml/conv.hpp"
#include "ml/layers.hpp"
#include "ml/quant.hpp"
#include "ml/quant_layers.hpp"

namespace autolearn::ml {
namespace {

/// Transparent wrapper recording the value range flowing *into* a layer
/// during calibration. Also keeps a capped sample reservoir so the
/// percentile calibrator can take real quantiles instead of min/max.
class ObservedLayer : public Layer {
 public:
  explicit ObservedLayer(LayerPtr inner) : inner_(std::move(inner)) {}

  Tensor forward(const Tensor& x, bool train) override {
    for (std::size_t i = 0; i < x.size(); ++i) {
      lo_ = std::min(lo_, x[i]);
      hi_ = std::max(hi_, x[i]);
    }
    if (values_.size() < kMaxValues) {
      const std::size_t take = std::min(kMaxValues - values_.size(), x.size());
      values_.insert(values_.end(), x.data(), x.data() + take);
    }
    return inner_->forward(x, train);
  }
  Tensor backward(const Tensor& /*grad_out*/) override {
    throw std::logic_error("ObservedLayer: calibration is forward-only");
  }
  std::vector<Param*> params() override { return inner_->params(); }
  std::string name() const override {
    return "observe(" + inner_->name() + ")";
  }
  std::uint64_t flops_per_sample() const override {
    return inner_->flops_per_sample();
  }

  Layer& inner() { return *inner_; }
  LayerPtr take_inner() { return std::move(inner_); }

  ActQuant act_quant(const QuantizeOptions& options) const {
    if (!(lo_ <= hi_)) return choose_act_quant(0.0f, 0.0f);  // nothing seen
    if (options.calibrator == Calibrator::MaxAbs || values_.empty()) {
      return choose_act_quant(lo_, hi_);
    }
    std::vector<float> v = values_;
    const double p = std::clamp(options.percentile, 0.5, 1.0);
    const auto n = static_cast<double>(v.size() - 1);
    const std::size_t hi_idx = static_cast<std::size_t>(std::llround(p * n));
    const std::size_t lo_idx =
        static_cast<std::size_t>(std::llround((1.0 - p) * n));
    std::nth_element(v.begin(), v.begin() + hi_idx, v.end());
    const float chi = v[hi_idx];
    std::nth_element(v.begin(), v.begin() + lo_idx, v.begin() + hi_idx + 1);
    return choose_act_quant(v[lo_idx], chi);
  }

 private:
  // 2M floats (8 MiB): enough for stable quantiles on any realistic
  // calibration set; observation simply stops growing past the cap.
  static constexpr std::size_t kMaxValues = 1u << 21;

  LayerPtr inner_;
  float lo_ = std::numeric_limits<float>::max();
  float hi_ = std::numeric_limits<float>::lowest();
  std::vector<float> values_;
};

bool quantizable(Layer& layer) {
  return dynamic_cast<Dense*>(&layer) != nullptr ||
         dynamic_cast<Conv2D*>(&layer) != nullptr ||
         dynamic_cast<Conv3D*>(&layer) != nullptr;
}

LayerPtr make_quant_twin(LayerPtr fp32, ActQuant xq) {
  if (auto* d = dynamic_cast<Dense*>(fp32.get())) {
    auto ps = d->params();
    return std::make_unique<QuantDense>(ps[0]->value, ps[1]->value, xq);
  }
  if (auto* c = dynamic_cast<Conv2D*>(fp32.get())) {
    auto ps = c->params();
    return std::make_unique<QuantConv2D>(c->in_channels(), c->out_channels(),
                                         c->kernel(), c->stride(),
                                         ps[0]->value, ps[1]->value, xq);
  }
  if (auto* c = dynamic_cast<Conv3D*>(fp32.get())) {
    auto ps = c->params();
    return std::make_unique<QuantConv3D>(
        c->in_channels(), c->out_channels(), c->kernel_d(), c->kernel(),
        c->stride_d(), c->stride(), ps[0]->value, ps[1]->value, xq);
  }
  throw std::logic_error("make_quant_twin: unsupported layer");
}

}  // namespace

const char* to_string(Calibrator calibrator) {
  return calibrator == Calibrator::Percentile ? "percentile" : "maxabs";
}

double QuantizedModel::train_batch(
    const std::vector<const Sample*>& /*batch*/) {
  throw std::logic_error(
      "QuantizedModel: frozen artifact — retrain the fp32 source and "
      "re-quantize");
}

void QuantizedModel::load(std::istream& /*is*/) {
  throw std::logic_error(
      "QuantizedModel: cannot load parameters — quantized weights are "
      "derived; re-run quantize_model on the fp32 source");
}

std::unique_ptr<QuantizedModel> quantize_model(
    DrivingModel& src, const ModelConfig& cfg,
    const std::vector<Sample>& calibration, const QuantizeOptions& options) {
  if (calibration.empty()) {
    throw std::invalid_argument("quantize_model: empty calibration set");
  }
  auto clone = make_model(src.type(), cfg);
  {
    std::stringstream state;
    src.save(state);
    clone->load(state);
  }
  const auto nets = clone->mutable_nets();
  if (nets.empty()) {
    throw std::invalid_argument("quantize_model: model exposes no nets");
  }

  // 1. Wrap every quantizable layer with a range observer.
  std::vector<std::pair<Sequential*, std::size_t>> sites;
  for (Sequential* net : nets) {
    for (std::size_t i = 0; i < net->num_layers(); ++i) {
      if (!quantizable(net->layer(i))) continue;
      LayerPtr fp32 = net->swap_layer(i, LayerPtr());
      net->swap_layer(i, std::make_unique<ObservedLayer>(std::move(fp32)));
      sites.emplace_back(net, i);
    }
  }
  if (sites.empty()) {
    throw std::invalid_argument("quantize_model: nothing to quantize");
  }

  // 2. Calibration passes: eval_batch runs Sequential::forward(train=false)
  //    with the observers recording (the plan compiler rejects them).
  const std::size_t bs = std::max<std::size_t>(1, options.calibration_batch);
  std::vector<const Sample*> chunk;
  for (std::size_t at = 0; at < calibration.size(); at += bs) {
    const std::size_t n = std::min(bs, calibration.size() - at);
    chunk.clear();
    for (std::size_t i = 0; i < n; ++i) chunk.push_back(&calibration[at + i]);
    clone->eval_batch(chunk);
  }

  // 3. Swap each observed site for its int8 twin.
  for (auto& [net, i] : sites) {
    auto& obs = static_cast<ObservedLayer&>(net->layer(i));
    const ActQuant xq = obs.act_quant(options);
    LayerPtr twin = make_quant_twin(obs.take_inner(), xq);
    net->swap_layer(i, std::move(twin));
  }
  return std::unique_ptr<QuantizedModel>(
      new QuantizedModel(std::move(clone)));
}

}  // namespace autolearn::ml
