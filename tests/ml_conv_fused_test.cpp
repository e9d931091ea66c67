// The fused convolution of the compiled plan (ml::conv_fused): patches
// read straight from the image through the im2col index map, bias + ReLU
// in the register tile. Oracles, all bitwise:
//   * a CompiledNet of one conv (+ ReLU) against Sequential::forward
//     (train=false) over channel counts, strides, non-square images,
//     reductions deeper than one KC block, ragged panel tails, rows 1 /
//     odd / cap, Conv3D, and -0.0 / NaN / denormal values through the
//     bias + ReLU epilogue;
//   * the portable body against a naive multiply-then-add loop nest, and
//     the AVX2 body (where the CPU has it) against im2col + sgemm;
//   * predict_batch under 1- and 4-worker pools;
// plus the kernel counters, the index-map errors and the arena bound.
// Selected by `ctest -L plan`.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "camera/image.hpp"
#include "ml/conv.hpp"
#include "ml/driving_model.hpp"
#include "ml/gemm.hpp"
#include "ml/layers.hpp"
#include "ml/plan.hpp"
#include "ml/sequential.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace autolearn::ml {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

/// One convolution's geometry; a Conv2D has d = kd = sd = 1.
struct ConvCase {
  std::string name;
  bool volumetric;
  std::size_t ic, oc, kd, k, sd, s, d, h, w;
  bool relu;

  std::vector<std::size_t> sample_shape() const {
    return volumetric ? std::vector<std::size_t>{ic, d, h, w}
                      : std::vector<std::size_t>{ic, h, w};
  }
  std::size_t p() const {
    return ((d - kd) / sd + 1) * ((h - k) / s + 1) * ((w - k) / s + 1);
  }
  std::size_t ckk() const { return ic * kd * k * k; }
};

void PrintTo(const ConvCase& c, std::ostream* os) { *os << c.name; }

Sequential make_net(const ConvCase& c, util::Rng& rng) {
  Sequential net;
  if (c.volumetric) {
    net.add<Conv3D>(c.ic, c.oc, c.kd, c.k, c.sd, c.s, rng);
  } else {
    net.add<Conv2D>(c.ic, c.oc, c.k, c.s, rng);
  }
  if (c.relu) net.add<ReLU>();
  return net;
}

Tensor random_input(const ConvCase& c, std::size_t rows, util::Rng& rng) {
  std::vector<std::size_t> shape{rows};
  const auto sample = c.sample_shape();
  shape.insert(shape.end(), sample.begin(), sample.end());
  Tensor x(shape);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return x;
}

/// Runs x through a fresh plan of `net` (cap `cap`) and asserts every
/// output bit equals Sequential::forward(train=false).
void expect_plan_bitwise(Sequential& net, const ConvCase& c, const Tensor& x,
                         std::size_t cap) {
  const std::size_t rows = x.dim(0);
  CompiledNet plan(net, c.sample_shape(), cap);
  const Tensor ref = net.forward(x, /*train=*/false);
  std::copy(x.data(), x.data() + x.size(), plan.input());
  const float* got = plan.run(rows);
  ASSERT_EQ(ref.size(), rows * plan.out_row_elems());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(bits(ref[i]), bits(got[i]))
        << c.name << " rows " << rows << " elem " << i << ": " << ref[i]
        << " vs " << got[i];
  }
}

class FusedConvOracle : public ::testing::TestWithParam<ConvCase> {};

TEST_P(FusedConvOracle, PlanMatchesSequentialForwardBitwise) {
  const ConvCase& c = GetParam();
  constexpr std::size_t kCap = 7;
  util::Rng rng(31);
  Sequential net = make_net(c, rng);
  for (const std::size_t rows : {std::size_t{1}, std::size_t{4}, kCap}) {
    expect_plan_bitwise(net, c, random_input(c, rows, rng), kCap);
  }
}

const ConvCase kCases[] = {
    // name, volumetric, ic, oc, kd, k, sd, s, d, h, w, relu
    {"oc1_s1", false, 2, 1, 1, 3, 1, 1, 1, 7, 7, true},
    {"oc3_s2_nonsquare", false, 1, 3, 1, 3, 1, 2, 1, 9, 13, true},
    {"oc4_s3", false, 3, 4, 1, 3, 1, 3, 1, 10, 8, true},
    {"oc8_encoder_conv1", false, 1, 8, 1, 3, 1, 2, 1, 24, 32, true},
    {"oc12_s1_nonsquare", false, 4, 12, 1, 3, 1, 1, 1, 6, 11, false},
    {"oc16_encoder_conv2", false, 8, 16, 1, 3, 1, 2, 1, 11, 15, true},
    {"oc32_encoder_conv3", false, 16, 32, 1, 3, 1, 2, 1, 5, 7, true},
    {"ckk288_two_kc_blocks", false, 32, 64, 1, 3, 1, 1, 1, 6, 5, true},
    {"ckk288_no_relu", false, 32, 12, 1, 3, 1, 2, 1, 7, 9, false},
    {"ckk576_three_kc_blocks", false, 64, 5, 1, 3, 1, 1, 1, 4, 5, true},
    {"k1_pointwise", false, 3, 5, 1, 1, 1, 1, 1, 4, 3, true},
    {"conv3d_zoo_stage1", true, 1, 8, 2, 3, 1, 2, 3, 24, 32, true},
    {"conv3d_zoo_stage2", true, 8, 16, 2, 3, 1, 2, 2, 11, 15, true},
    {"conv3d_depth_stride2", true, 3, 4, 2, 2, 2, 1, 5, 5, 6, false},
};

INSTANTIATE_TEST_SUITE_P(Geometries, FusedConvOracle,
                         ::testing::ValuesIn(kCases),
                         [](const auto& info) { return info.param.name; });

TEST(FusedConvPlan, NPNotAMultipleOfThePanelWidth) {
  // 165 positions per sample: panels straddle sample boundaries and the
  // last panel of an odd batch is ragged.
  const ConvCase c = kCases[3];
  ASSERT_NE((5 * c.p()) % 16, 0u);
  util::Rng rng(37);
  Sequential net = make_net(c, rng);
  expect_plan_bitwise(net, c, random_input(c, 5, rng), 5);
}

/// Weights, biases and inputs chosen so the epilogue sees -0.0, NaN and
/// denormals: channel 0 sums products that round to -0 and adds a -0
/// bias; channel 1 has a NaN bias; channel 2 sums denormal products;
/// every channel reads one NaN input pixel.
void set_special_values(Sequential& net, Tensor& x) {
  auto params = net.layer(0).params();
  Tensor& w = params[0]->value;
  Tensor& b = params[1]->value;
  const std::size_t ckk = w.size() / 4;
  for (std::size_t r = 0; r < ckk; ++r) {
    w[0 * ckk + r] = -1e-30f;
    w[1 * ckk + r] = 0.5f;
    w[2 * ckk + r] = 1e-20f;
    w[3 * ckk + r] = r % 2 == 0 ? 0.25f : -0.75f;
  }
  b[0] = -0.0f;
  b[1] = kNaN;
  b[2] = 0.0f;
  b[3] = 0.125f;
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = i % 3 == 0 ? 1e-21f : 1e-21f * static_cast<float>(i % 5);
  }
  x[x.size() / 2] = kNaN;
}

TEST(FusedConvPlan, NegativeZeroNaNAndDenormalsThroughBiasAndRelu) {
  for (const bool relu : {false, true}) {
    // 72 positions per sample: most 16-column panels lie in one sample
    // and take the register epilogue; those that span two samples, and
    // the ragged last one, take the scalar one.
    const ConvCase c{"special", false, 2, 4, 1, 3, 1, 1, 1, 10, 11, relu};
    util::Rng rng(41);
    Sequential net = make_net(c, rng);
    Tensor x = random_input(c, 3, rng);
    set_special_values(net, x);
    const Tensor ref = net.forward(x, /*train=*/false);
    bool saw_neg_zero = false, saw_nan = false, saw_denormal = false;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      saw_neg_zero |= bits(ref[i]) == bits(-0.0f);
      saw_nan |= ref[i] != ref[i];
      saw_denormal |= ref[i] != 0.0f &&
                      std::abs(ref[i]) < std::numeric_limits<float>::min();
    }
    // Without ReLU all three reach the output; ReLU keeps the positive
    // denormals and maps -0.0 and NaN to +0. A -0 sum needs the fused
    // multiply-add: multiply-then-add from +0 rounds it to +0.
    if (conv_isa_supported(ConvIsa::Avx2)) {
      EXPECT_EQ(saw_neg_zero, !relu);
    }
    EXPECT_EQ(saw_nan, !relu);
    EXPECT_TRUE(saw_denormal);
    expect_plan_bitwise(net, c, x, 3);
  }
}

// --- the two kernel bodies -------------------------------------------------

/// Direct kernel call on one geometry: random x, W, bias.
struct DirectConv {
  ConvCase c;
  std::size_t n;
  ConvIndexMap map;
  std::vector<float> x, w, bias, packed;

  DirectConv(const ConvCase& cc, std::size_t rows) : c(cc), n(rows) {
    map = conv_index_map(c.ic, c.d, c.h, c.w, c.kd, c.k, c.k, c.sd, c.s, c.s);
    util::Rng rng(43);
    const auto fill = [&](std::vector<float>& v, std::size_t size) {
      v.resize(size);
      for (float& f : v) f = static_cast<float>(rng.uniform(-1.0, 1.0));
    };
    fill(x, n * map.sample_elems);
    fill(w, c.oc * c.ckk());
    fill(bias, c.oc);
    packed.resize(packed_conv_weights_floats(c.oc, c.ckk()));
    pack_conv_weights(w.data(), c.oc, c.ckk(), packed.data());
  }

  std::vector<float> run(ConvIsa isa) const {
    std::vector<float> y(n * c.oc * c.p(), -1.0f);
    conv_fused(x.data(), n, map, packed.data(), c.oc, bias.data(), c.relu,
               y.data(), isa);
    return y;
  }
};

/// The arithmetic micro_kernel_base + sgemm + bias + ReLU perform, spelled
/// out as loops over the geometry: per 256-deep block a multiply-then-add
/// chain from +0, block sums added in order, then bias and the compare.
std::vector<float> naive_conv(const DirectConv& dc) {
  const ConvCase& c = dc.c;
  constexpr std::size_t kKC = 256;
  const std::size_t od = (c.d - c.kd) / c.sd + 1;
  const std::size_t oh = (c.h - c.k) / c.s + 1;
  const std::size_t ow = (c.w - c.k) / c.s + 1;
  std::vector<float> patch(c.ckk());
  std::vector<float> y(dc.n * c.oc * c.p());
  for (std::size_t i = 0; i < dc.n; ++i) {
    for (std::size_t oz = 0; oz < od; ++oz) {
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          std::size_t r = 0;
          for (std::size_t ic = 0; ic < c.ic; ++ic) {
            for (std::size_t kz = 0; kz < c.kd; ++kz) {
              for (std::size_t ky = 0; ky < c.k; ++ky) {
                for (std::size_t kx = 0; kx < c.k; ++kx) {
                  patch[r++] = dc.x[(((i * c.ic + ic) * c.d + oz * c.sd + kz) *
                                         c.h +
                                     oy * c.s + ky) *
                                        c.w +
                                    ox * c.s + kx];
                }
              }
            }
          }
          const std::size_t q = (oz * oh + oy) * ow + ox;
          for (std::size_t o = 0; o < c.oc; ++o) {
            float sum = 0.0f;
            for (std::size_t p0 = 0; p0 < c.ckk(); p0 += kKC) {
              float acc = 0.0f;
              for (std::size_t p = p0; p < std::min(p0 + kKC, c.ckk()); ++p) {
                const float prod = dc.w[o * c.ckk() + p] * patch[p];
                acc = acc + prod;
              }
              sum = p0 == 0 ? acc : sum + acc;
            }
            float t = sum + dc.bias[o];
            if (c.relu) t = t > 0.0f ? t : 0.0f;
            y[(i * c.oc + o) * c.p() + q] = t;
          }
        }
      }
    }
  }
  return y;
}

/// The interpreted lowering: im2col/vol2col + sgemm + bias (+ ReLU).
std::vector<float> sgemm_conv(const DirectConv& dc) {
  const ConvCase& c = dc.c;
  const std::size_t p = c.p(), np = dc.n * p, ckk = c.ckk();
  std::vector<float> col(ckk * np), yall(c.oc * np), y(dc.n * c.oc * p);
  for (std::size_t i = 0; i < dc.n; ++i) {
    vol2col(dc.x.data() + i * dc.map.sample_elems, c.ic, c.d, c.h, c.w, c.kd,
            c.k, c.k, c.sd, c.s, c.s, col.data() + i * p, np);
  }
  sgemm(false, false, c.oc, np, ckk, 1.0f, dc.w.data(), ckk, col.data(), np,
        0.0f, yall.data(), np);
  for (std::size_t i = 0; i < dc.n; ++i) {
    for (std::size_t o = 0; o < c.oc; ++o) {
      for (std::size_t q = 0; q < p; ++q) {
        float t = yall[o * np + i * p + q] + dc.bias[o];
        if (c.relu) t = t > 0.0f ? t : 0.0f;
        y[(i * c.oc + o) * p + q] = t;
      }
    }
  }
  return y;
}

void expect_same_bits(const std::vector<float>& ref,
                      const std::vector<float>& got, const std::string& what) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(bits(ref[i]), bits(got[i]))
        << what << " elem " << i << ": " << ref[i] << " vs " << got[i];
  }
}

TEST_P(FusedConvOracle, PortableBodyMatchesNaiveMultiplyThenAdd) {
  const DirectConv dc(GetParam(), 3);
  expect_same_bits(naive_conv(dc), dc.run(ConvIsa::Portable),
                   GetParam().name);
}

TEST_P(FusedConvOracle, Avx2BodyMatchesIm2colSgemm) {
  if (!conv_isa_supported(ConvIsa::Avx2)) {
    GTEST_SKIP() << "CPU lacks AVX2+FMA";
  }
  const DirectConv dc(GetParam(), 3);
  expect_same_bits(sgemm_conv(dc), dc.run(ConvIsa::Avx2), GetParam().name);
}

TEST(FusedConvKernel, RecordsOneGemmCallAndNoIm2col) {
  const ConvCase c = kCases[7];  // 32 -> 64, k3: ckk 288
  const DirectConv dc(c, 2);
  const KernelCounters before = kernel_counters();
  dc.run(ConvIsa::Auto);
  const KernelCounters after = kernel_counters();
  EXPECT_EQ(after.gemm_calls - before.gemm_calls, 1u);
  EXPECT_EQ(after.gemm_flops - before.gemm_flops,
            2ull * c.oc * 2 * c.p() * c.ckk());
  EXPECT_EQ(after.im2col_elems, before.im2col_elems);
}

TEST(FusedConvKernel, IndexMapRejectsBadGeometry) {
  EXPECT_THROW(conv_index_map(1, 1, 4, 4, 1, 5, 3, 1, 1, 1),
               std::invalid_argument);  // kernel taller than the image
  EXPECT_THROW(conv_index_map(1, 1, 4, 4, 1, 3, 3, 1, 0, 1),
               std::invalid_argument);  // zero stride
  const ConvIndexMap m = conv_index_map(2, 1, 5, 6, 1, 3, 3, 1, 2, 1);
  EXPECT_EQ(m.taps.size(), 18u);
  EXPECT_EQ(m.pos.size(), 2u * 4u);
  EXPECT_EQ(m.sample_elems, 60u);
  EXPECT_EQ(m.taps[17], (1 * 5 + 2) * 6 + 2);  // ic 1, ky 2, kx 2
  EXPECT_EQ(m.pos[7], (1 * 2) * 6 + 3);        // oy 1, ox 3
}

TEST(FusedConvPlan, OffsetsPast32BitsAreAPlanError) {
  // 32 rows of a 1x8192x8192 image end one float past int32 offsets; a
  // 1x50000x50000 image is past them in one row. Compile rejects both
  // before it sizes the arena, with the typed error.
  util::Rng rng(5);
  Sequential net;
  net.add<Conv2D>(1, 1, 3, 1, rng);
  const auto expect_bad_shape = [&](std::vector<std::size_t> shape,
                                    std::size_t cap) {
    try {
      CompiledNet plan(net, shape, cap);
      ADD_FAILURE() << "compiled " << shape[1] << "x" << shape[2];
    } catch (const PlanError& e) {
      EXPECT_EQ(e.code(), PlanError::Code::BadShape) << e.what();
    }
  };
  expect_bad_shape({1, 8192, 8192}, 32);
  expect_bad_shape({1, 50000, 50000}, 1);
}

// --- through the zoo ----------------------------------------------------------

std::vector<Sample> make_samples(const ModelConfig& cfg, std::size_t n) {
  util::Rng rng(47);
  std::vector<Sample> out(n);
  for (Sample& s : out) {
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
  }
  return out;
}

class FusedConvZoo : public ::testing::TestWithParam<ModelType> {};

TEST_P(FusedConvZoo, PredictBatchIsThreadInvariant) {
  // Batch 32: every encoder conv is large enough to be split into panel
  // ranges across the 4-worker pool.
  ModelConfig cfg;
  const auto samples = make_samples(cfg, 32);
  std::vector<std::vector<Prediction>> runs;
  for (const std::size_t workers : {1, 4}) {
    util::ThreadPool pool(workers);
    util::ThreadPool::ScopedOverride override_pool(pool);
    const auto model = make_model(GetParam(), cfg);
    std::vector<Prediction> out(samples.size());
    model->predict_batch(samples.data(), samples.size(), out.data());
    runs.push_back(out);
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(bits(runs[0][i].steering), bits(runs[1][i].steering)) << i;
    EXPECT_EQ(bits(runs[0][i].throttle), bits(runs[1][i].throttle)) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllZooModels, FusedConvZoo,
                         ::testing::ValuesIn(all_model_types()),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(FusedConvZoo, LinearArenaAtCap32HoldsNoPatchMatrix) {
  // Before the fused conv the arena held each conv's patch matrix and
  // batched GEMM output: 167,840 floats at cap 32.
  ModelConfig cfg;
  const auto model = make_model(ModelType::Linear, cfg);
  const auto samples = make_samples(cfg, 32);
  std::vector<Prediction> out(samples.size());
  model->predict_batch(samples.data(), samples.size(), out.data());
  ASSERT_EQ(model->plan()->max_batch(), 32u);
  EXPECT_LE(model->plan()->stats().arena_floats, 70000u);
}

}  // namespace
}  // namespace autolearn::ml
