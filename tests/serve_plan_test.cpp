// Serving-tier integration of the compiled forward path: a FleetService
// run through the zoo model (which predicts only through its plan) is
// report-identical to the same run through an interpreted reference that
// decodes Sequential::forward(train=false) itself — compilation is a pure
// performance change — and serving compiles the published model on its
// own, sized to the batches it actually ran. Selected by `ctest -L plan`
// (and -L serve).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>

#include "ml/driving_model.hpp"
#include "ml/loss.hpp"
#include "ml/plan.hpp"
#include "serve/model_registry.hpp"
#include "serve/replication.hpp"
#include "serve/service.hpp"
#include "util/event_queue.hpp"

namespace autolearn::serve {
namespace {

std::shared_ptr<ml::DrivingModel> make_shared_model(
    ml::ModelType type = ml::ModelType::Linear, std::uint64_t seed = 42) {
  ml::ModelConfig cfg;
  cfg.seed = seed;
  return std::shared_ptr<ml::DrivingModel>(ml::make_model(type, cfg));
}

/// A Linear or Categorical zoo model served without its plan: every call
/// forwards to the wrapped model except predict_batch, which stages the
/// frames into a tensor, runs Sequential::forward(train=false) on the
/// model's net and decodes the output as the zoo model does.
class InterpretedReference final : public ml::DrivingModel {
 public:
  explicit InterpretedReference(ml::ModelType type)
      : inner_(ml::make_model(type, cfg_)), net_(*inner_->mutable_nets()[0]) {}

  ml::ModelType type() const override { return inner_->type(); }
  ml::Prediction predict(const ml::Sample& obs) override {
    ml::Prediction p;
    predict_batch(&obs, 1, &p);
    return p;
  }
  void predict_batch(const ml::Sample* obs, std::size_t n,
                     ml::Prediction* out) override {
    const std::size_t frame = cfg_.img_h * cfg_.img_w;
    ml::Tensor x({n, 1, cfg_.img_h, cfg_.img_w});
    for (std::size_t i = 0; i < n; ++i) {
      const auto& px = obs[i].frames.back().pixels();
      std::copy(px.begin(), px.end(), x.data() + i * frame);
    }
    const ml::Tensor y = net_.forward(x, /*train=*/false);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = type() == ml::ModelType::Linear ? regression(y, i)
                                               : categorical(y, i);
    }
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
  static ml::Prediction regression(const ml::Tensor& y, std::size_t i) {
    return {std::clamp<double>(y.at(i, 0), -1, 1),
            std::clamp<double>(y.at(i, 1), 0, 1)};
  }
  ml::Prediction categorical(const ml::Tensor& y, std::size_t i) const {
    const std::size_t sb = argmax(ml::softmax_row(y, i, 0, cfg_.steering_bins));
    const std::size_t tb = argmax(ml::softmax_row(
        y, i, cfg_.steering_bins, cfg_.steering_bins + cfg_.throttle_bins));
    return {unbin(sb, -1, 1, cfg_.steering_bins),
            unbin(tb, 0, 1, cfg_.throttle_bins)};
  }
  static std::size_t argmax(const std::vector<float>& p) {
    return static_cast<std::size_t>(std::max_element(p.begin(), p.end()) -
                                    p.begin());
  }
  static double unbin(std::size_t bin, double lo, double hi,
                      std::size_t bins) {
    return lo + (hi - lo) * static_cast<double>(bin) /
                    static_cast<double>(bins - 1);
  }

  ml::ModelConfig cfg_;
  std::unique_ptr<ml::DrivingModel> inner_;
  ml::Sequential& net_;
};

FleetOptions small_fleet() {
  FleetOptions opt;
  opt.cars = 4;
  opt.duration_s = 1.0;
  opt.mean_interarrival_s = 0.01;
  opt.batcher.max_batch = 8;
  opt.batcher.max_delay_s = 0.01;
  opt.placement = core::Placement::Cloud;
  opt.seed = 11;
  return opt;
}

ServeReport run_fleet(std::shared_ptr<ml::DrivingModel> model,
                      std::size_t shards = 1) {
  util::EventQueue queue;
  FleetOptions opt = small_fleet();
  opt.shards = shards;
  if (shards > 1) {
    ReplicatedRegistry reg(shards);
    reg.publish_all(std::move(model), "bootstrap");
    FleetService service(queue, reg, opt);
    return service.run();
  }
  ModelRegistry reg;
  reg.publish(std::move(model), "bootstrap");
  FleetService service(queue, reg, opt);
  return service.run();
}

TEST(FleetServicePlan, ReportIsIdenticalWithPlansOnAndOff) {
  // The whole point of the bitwise contract: serving through the plan
  // must change nothing about WHAT the fleet computes, only how fast.
  for (ml::ModelType type :
       {ml::ModelType::Linear, ml::ModelType::Categorical}) {
    const ServeReport off =
        run_fleet(std::make_shared<InterpretedReference>(type));
    const ServeReport on = run_fleet(make_shared_model(type));
    EXPECT_GT(on.completed, 0u);
    EXPECT_EQ(off.to_json().dump(), on.to_json().dump())
        << "model " << ml::to_string(type);
  }
}

TEST(FleetServicePlan, ShardedReportIsIdenticalWithPlansOnAndOff) {
  const ServeReport off = run_fleet(
      std::make_shared<InterpretedReference>(ml::ModelType::Linear), 2);
  const ServeReport on = run_fleet(make_shared_model(ml::ModelType::Linear), 2);
  EXPECT_EQ(off.to_json().dump(), on.to_json().dump());
}

TEST(FleetServicePlan, DefaultOptionsCompileThePublishedModel) {
  // No serving knob: the published model compiles on its first batch and
  // grows to the largest batch the fleet dispatched, never past the
  // batcher cap's power of two.
  util::EventQueue queue;
  FleetOptions opt = small_fleet();
  ModelRegistry reg;
  auto model = make_shared_model();
  reg.publish(model, "bootstrap");
  FleetService service(queue, reg, opt);
  const ServeReport r = service.run();
  ASSERT_FALSE(r.batch_sizes.empty());
  const std::size_t largest =
      *std::max_element(r.batch_sizes.begin(), r.batch_sizes.end());
  ASSERT_NE(model->plan(), nullptr);
  EXPECT_EQ(model->plan()->max_batch(), std::bit_ceil(largest));
  EXPECT_LE(model->plan()->max_batch(),
            std::bit_ceil(opt.batcher.max_batch));
}

}  // namespace
}  // namespace autolearn::serve
