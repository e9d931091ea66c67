// Oracle for the compiled forward path every zoo prediction runs through.
// Sequential::forward(train=false) is the reference: for every net of all
// six zoo models, fp32 AND int8, the compiled arena program must reproduce
// it BITWISE at one row, at a ragged row count, and at the cap. Around
// that: the plan's compile-on-use / grow / drop rules, predict ==
// predict_batch across grow boundaries, Adam updates reaching the plan,
// frame-size checks on every entry point, the typed compile-failure
// contract (PlanError, never a crash) and the arena-sharing accounting.
// Selected by `ctest -L plan`.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "camera/image.hpp"
#include "ml/conv.hpp"
#include "ml/driving_model.hpp"
#include "ml/layers.hpp"
#include "ml/plan.hpp"
#include "ml/quant_model.hpp"
#include "ml/sequential.hpp"
#include "util/rng.hpp"

namespace autolearn::ml {
namespace {

constexpr std::size_t kMaxBatch = 8;

std::vector<Sample> make_samples(const ModelConfig& cfg, std::size_t n,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Sample> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Sample s;
    for (std::size_t f = 0; f < cfg.seq_len; ++f) {
      camera::Image img(cfg.img_w, cfg.img_h);
      for (float& px : img.pixels()) {
        px = static_cast<float>(rng.uniform(0.0, 1.0));
      }
      s.frames.push_back(std::move(img));
    }
    for (std::size_t h = 0; h < cfg.history_len; ++h) {
      s.history.push_back(static_cast<float>(rng.uniform(-1.0, 1.0)));
      s.history.push_back(static_cast<float>(rng.uniform(0.0, 1.0)));
    }
    out.push_back(std::move(s));
  }
  return out;
}

void expect_same_predictions(const std::vector<Prediction>& ref,
                             const std::vector<Prediction>& got) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].steering, got[i].steering) << "row " << i;
    EXPECT_EQ(ref[i].throttle, got[i].throttle) << "row " << i;
  }
}

std::vector<Prediction> predict_all(DrivingModel& model,
                                    const std::vector<Sample>& samples,
                                    std::size_t n) {
  std::vector<Prediction> out(n);
  model.predict_batch(samples.data(), n, out.data());
  return out;
}

/// Compiles `model`'s plan at kMaxBatch through predict_batch, then runs
/// every CompiledNet against Sequential::forward(train=false) of the net
/// it was compiled from (`nets`, taken before compiling), on random inputs
/// at one row, a ragged row count and the net's row cap.
void expect_plan_matches_forward(DrivingModel& model,
                                 const std::vector<Sequential*>& nets,
                                 const std::vector<Sample>& samples) {
  predict_all(model, samples, kMaxBatch);
  CompiledModel* plan = model.plan();
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->max_batch(), kMaxBatch);
  ASSERT_EQ(plan->num_nets(), nets.size());
  util::Rng rng(23);
  for (std::size_t i = 0; i < nets.size(); ++i) {
    CompiledNet& net = plan->net(i);
    const std::size_t cap = net.max_rows();
    for (const std::size_t rows : {std::size_t{1}, cap - 3, cap}) {
      std::vector<std::size_t> shape{rows};
      shape.insert(shape.end(), net.in_shape().begin(), net.in_shape().end());
      Tensor x(shape);
      for (std::size_t k = 0; k < x.size(); ++k) {
        x[k] = static_cast<float>(rng.uniform(-1.0, 1.0));
      }
      const Tensor ref = nets[i]->forward(x, /*train=*/false);
      std::copy(x.data(), x.data() + x.size(), net.input());
      const float* got = net.run(rows);
      ASSERT_EQ(ref.size(), rows * net.out_row_elems());
      for (std::size_t k = 0; k < ref.size(); ++k) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(ref[k]),
                  std::bit_cast<std::uint32_t>(got[k]))
            << "net " << i << " rows " << rows << " elem " << k;
      }
    }
  }
}

class PlanOracle : public ::testing::TestWithParam<ModelType> {};

TEST_P(PlanOracle, Fp32BitwiseAtAllBatchSizes) {
  ModelConfig cfg;
  const auto model = make_model(GetParam(), cfg);
  const std::vector<Sequential*> nets = model->mutable_nets();
  expect_plan_matches_forward(*model, nets, make_samples(cfg, kMaxBatch, 17));
}

TEST_P(PlanOracle, Int8BitwiseAtAllBatchSizes) {
  ModelConfig cfg;
  const auto fp32 = make_model(GetParam(), cfg);
  const auto calibration = make_samples(cfg, 4, 29);
  const auto model = quantize_model(*fp32, cfg, calibration);
  ASSERT_EQ(model->precision(), Precision::Int8);
  const std::vector<Sequential*> nets = model->inner().mutable_nets();
  expect_plan_matches_forward(*model, nets, make_samples(cfg, kMaxBatch, 17));
}

TEST_P(PlanOracle, RepeatedRunsAreDeterministic) {
  ModelConfig cfg;
  const auto model = make_model(GetParam(), cfg);
  const auto samples = make_samples(cfg, kMaxBatch, 41);
  const auto first = predict_all(*model, samples, kMaxBatch);
  const auto second = predict_all(*model, samples, kMaxBatch);
  expect_same_predictions(first, second);
}

TEST_P(PlanOracle, PredictBatchMatchesPredictAcrossGrowBoundaries) {
  // Batch sizes chosen to grow the plan 1 -> 8 -> 16 -> 64 and to run
  // within a cap (8 after 5, which compiled at 8): each batch's rows must
  // equal the row-of-one predictions, whatever cap served them.
  ModelConfig cfg;
  const auto model = make_model(GetParam(), cfg);
  const auto samples = make_samples(cfg, 33, 53);
  std::vector<Prediction> single;
  for (const Sample& s : samples) single.push_back(model->predict(s));
  ASSERT_EQ(model->plan()->max_batch(), 1u);
  for (const std::size_t n : {1, 5, 8, 9, 33}) {
    const auto got = predict_all(*model, samples, n);
    EXPECT_EQ(model->plan()->max_batch(), std::bit_ceil(n)) << "n=" << n;
    expect_same_predictions(
        std::vector<Prediction>(single.begin(), single.begin() + n), got);
  }
}

TEST_P(PlanOracle, AttachIsIdempotentForMatchingCap) {
  // The plan a batch compiles stays attached for every batch within its
  // cap (smaller ones included); only a larger batch recompiles, at the
  // next power of two.
  ModelConfig cfg;
  const auto model = make_model(GetParam(), cfg);
  const auto samples = make_samples(cfg, 2 * kMaxBatch, 47);
  predict_all(*model, samples, kMaxBatch);
  ASSERT_NE(model->plan(), nullptr);
  EXPECT_EQ(model->plan()->max_batch(), kMaxBatch);
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, kMaxBatch}) {
    predict_all(*model, samples, n);
    EXPECT_EQ(model->plan()->max_batch(), kMaxBatch) << "n=" << n;
  }
  predict_all(*model, samples, kMaxBatch + 1);
  EXPECT_EQ(model->plan()->max_batch(), 2 * kMaxBatch);
}

TEST_P(PlanOracle, ArenaSharingBeatsNaiveSum) {
  ModelConfig cfg;
  const auto model = make_model(GetParam(), cfg);
  predict_all(*model, make_samples(cfg, kMaxBatch, 43), kMaxBatch);
  const PlanStats stats = model->plan()->stats();
  EXPECT_GT(stats.steps, 0u);
  EXPECT_GT(stats.arena_floats, 0u);
  // Liveness-based slot sharing must never do worse than giving every
  // intermediate its own buffer.
  EXPECT_LE(stats.arena_floats, stats.naive_floats);
}

TEST_P(PlanOracle, SaveLoadReattachKeepsBitwiseIdentity) {
  ModelConfig cfg;
  const auto model = make_model(GetParam(), cfg);
  const auto samples = make_samples(cfg, kMaxBatch, 61);
  std::ostringstream saved;
  model->save(saved);
  predict_all(*model, samples, kMaxBatch);
  // The plan holds raw parameter pointers, so load() drops it and the
  // next prediction compiles a fresh one.
  std::istringstream restore(saved.str());
  model->load(restore);
  EXPECT_EQ(model->plan()->max_batch(), 1u);
  const auto twin = make_model(GetParam(), cfg);
  std::istringstream restore2(saved.str());
  twin->load(restore2);
  expect_same_predictions(predict_all(*twin, samples, kMaxBatch),
                          predict_all(*model, samples, kMaxBatch));
}

TEST_P(PlanOracle, TrainBatchUpdatesReachThePlan) {
  // Adam writes the parameters in place, so a plan compiled before a
  // training step must predict exactly what a freshly compiled twin of
  // the trained model does.
  ModelConfig cfg;
  const auto model = make_model(GetParam(), cfg);
  const auto samples = make_samples(cfg, kMaxBatch, 67);
  std::ostringstream initial;
  model->save(initial);
  predict_all(*model, samples, kMaxBatch);
  std::vector<const Sample*> batch;
  for (const Sample& s : samples) batch.push_back(&s);
  model->train_batch(batch);
  const auto after = predict_all(*model, samples, kMaxBatch);

  std::ostringstream trained;
  model->save(trained);
  ASSERT_NE(initial.str(), trained.str()) << "training step moved nothing";
  const auto twin = make_model(GetParam(), cfg);
  std::istringstream restore(trained.str());
  twin->load(restore);
  expect_same_predictions(predict_all(*twin, samples, kMaxBatch), after);
}

TEST_P(PlanOracle, MisSizedFrameThrowsFromEveryEntryPoint) {
  // A camera at 40x30 feeding a model built for 32x24 must be rejected
  // before its pixels are copied, on the inference and training paths
  // alike: copied unchecked, the larger frame overruns the staging
  // buffer. The oldest frame the model reads is the mis-sized one.
  ModelConfig cfg;
  const auto model = make_model(GetParam(), cfg);
  auto samples = make_samples(cfg, 2, 71);
  for (Sample& s : samples) {
    s.frames[s.frames.size() - model->seq_len()] = camera::Image(40, 30);
  }
  std::vector<const Sample*> batch{&samples[0], &samples[1]};
  std::vector<Prediction> out(2);
  EXPECT_THROW(model->predict(samples[0]), std::invalid_argument);
  EXPECT_THROW(model->predict_batch(samples.data(), 2, out.data()),
               std::invalid_argument);
  EXPECT_THROW(model->train_batch(batch), std::invalid_argument);
  EXPECT_THROW(model->eval_batch(batch), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllZooModels, PlanOracle,
                         ::testing::ValuesIn(all_model_types()),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// --- typed compile/execute failures -------------------------------------

TEST(PlanErrors, EmptyModelThrowsTyped) {
  Sequential net;
  try {
    CompiledNet plan(net, {4}, 8);
    FAIL() << "expected PlanError";
  } catch (const PlanError& e) {
    EXPECT_EQ(e.code(), PlanError::Code::EmptyModel);
  }
}

TEST(PlanErrors, NullLayerSlotThrowsTypedNotCrash) {
  util::Rng rng(7);
  Sequential net;
  net.add<Dense>(4, 2, rng);
  // Mid-swap state: the slot transiently holds null.
  auto old = net.swap_layer(0, nullptr);
  try {
    CompiledNet plan(net, {4}, 8);
    FAIL() << "expected PlanError";
  } catch (const PlanError& e) {
    EXPECT_EQ(e.code(), PlanError::Code::NullLayer);
  }
  net.swap_layer(0, std::move(old));  // restore; compile now succeeds
  CompiledNet plan(net, {4}, 8);
  EXPECT_EQ(plan.out_row_elems(), 2u);
}

TEST(PlanErrors, UnsupportedLayerNamesTheLayer) {
  Sequential net;
  net.add<MaxPool2D>();
  try {
    CompiledNet plan(net, {1, 8, 8}, 4);
    FAIL() << "expected PlanError";
  } catch (const PlanError& e) {
    EXPECT_EQ(e.code(), PlanError::Code::UnsupportedLayer);
    EXPECT_NE(std::string(e.what()).find("maxpool2d"), std::string::npos);
  }
}

TEST(PlanErrors, BadBatchOnZeroCapAndOutOfRangeRows) {
  EXPECT_THROW(CompiledModel model(0), PlanError);
  util::Rng rng(7);
  Sequential net;
  net.add<Dense>(4, 2, rng);
  CompiledNet plan(net, {4}, 8);
  EXPECT_THROW(plan.run(0), PlanError);
  EXPECT_THROW(plan.run(9), PlanError);
}

TEST(PlanErrors, DirectNetBitwiseMatchesSequentialForward) {
  util::Rng rng(11);
  Sequential net;
  net.add<Dense>(6, 8, rng);
  net.add<ReLU>();
  net.add<Dense>(8, 2, rng);
  net.add<Tanh>();
  CompiledNet plan(net, {6}, 4);
  util::Rng data_rng(13);
  Tensor x({3, 6});
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(data_rng.uniform(-1.0, 1.0));
  }
  const Tensor ref = net.forward(x, /*train=*/false);
  std::copy(x.data(), x.data() + x.size(), plan.input());
  const float* got = plan.run(3);
  ASSERT_EQ(ref.size(), 3u * plan.out_row_elems());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i], got[i]) << "elem " << i;
  }
}

}  // namespace
}  // namespace autolearn::ml
