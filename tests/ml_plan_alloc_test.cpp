// Zero-allocation guarantee for the compiled forward path. This binary —
// and only this binary — links tests/alloc_hooks.cpp, whose operator
// new/delete overrides tick util::allocation_count(). Once warm-up
// batches have grown the plan to its cap, predict_batch must perform ZERO
// heap allocations; Sequential::forward on the same net allocates per
// batch (that contrast is asserted too, so the hooks are proven live).
// Selected by `ctest -L plan`.
#include <gtest/gtest.h>

#include <vector>

#include "camera/image.hpp"
#include "ml/driving_model.hpp"
#include "ml/plan.hpp"
#include "ml/quant_model.hpp"
#include "util/alloc_counter.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

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

TEST(AllocHooks, CountAllocations) {
  util::AllocCounterScope scope;
  auto* p = new int(42);
  EXPECT_GE(scope.delta(), 1u);
  delete p;
}

class PlanZeroAlloc : public ::testing::TestWithParam<ModelType> {};

TEST_P(PlanZeroAlloc, SteadyStatePredictBatchIsAllocationFree) {
  // Single-worker pool: the raw chunk dispatch runs inline on the caller,
  // so the measurement excludes worker-thread scheduling noise. (The
  // multi-worker path is also allocation-free — chunks are claimed from
  // pool-resident state — but worker wakeups make the count racy to read.)
  util::ThreadPool pool(1);
  util::ThreadPool::ScopedOverride override_pool(pool);

  ModelConfig cfg;
  const auto model = make_model(GetParam(), cfg);
  const std::vector<Sequential*> nets = model->mutable_nets();
  const auto samples = make_samples(cfg, kMaxBatch, 17);
  std::vector<Prediction> out(kMaxBatch);

  // Warm-up: grow the plan to the cap (the first batch compiles it) and
  // fault in lazily-initialized kernel state.
  model->predict_batch(samples.data(), 1, out.data());
  model->predict_batch(samples.data(), kMaxBatch, out.data());
  model->predict_batch(samples.data(), 3, out.data());
  ASSERT_EQ(model->plan()->max_batch(), kMaxBatch);

  // Sequential::forward allocates (tensors per layer) — proves the hooks
  // are live before we assert a zero.
  {
    const CompiledNet& net = model->plan()->net(0);
    std::vector<std::size_t> shape{1};
    shape.insert(shape.end(), net.in_shape().begin(), net.in_shape().end());
    const Tensor x(shape);
    util::AllocCounterScope interp;
    nets[0]->forward(x, /*train=*/false);
    EXPECT_GT(interp.delta(), 0u) << "alloc hooks not linked?";
  }

  util::AllocCounterScope scope;
  model->predict_batch(samples.data(), kMaxBatch, out.data());
  model->predict_batch(samples.data(), 3, out.data());  // ragged tail too
  model->predict_batch(samples.data(), 1, out.data());
  EXPECT_EQ(scope.delta(), 0u)
      << "compiled predict_batch heap-allocated in steady state";
}

TEST_P(PlanZeroAlloc, Int8SteadyStateIsAllocationFree) {
  util::ThreadPool pool(1);
  util::ThreadPool::ScopedOverride override_pool(pool);

  ModelConfig cfg;
  const auto fp32 = make_model(GetParam(), cfg);
  const auto calibration = make_samples(cfg, 4, 29);
  const auto model = quantize_model(*fp32, cfg, calibration);
  const auto samples = make_samples(cfg, kMaxBatch, 17);
  std::vector<Prediction> out(kMaxBatch);

  model->predict_batch(samples.data(), kMaxBatch, out.data());  // compile

  util::AllocCounterScope scope;
  model->predict_batch(samples.data(), kMaxBatch, out.data());
  model->predict_batch(samples.data(), 5, out.data());
  EXPECT_EQ(scope.delta(), 0u)
      << "compiled int8 predict_batch heap-allocated in steady state";
}

INSTANTIATE_TEST_SUITE_P(AllZooModels, PlanZeroAlloc,
                         ::testing::ValuesIn(all_model_types()),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace autolearn::ml
