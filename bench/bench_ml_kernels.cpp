// Kernel benchmark for the ml GEMM backbone. Measures:
//   1. sgemm GFLOP/s on the six layer shapes of the default model zoo
//      (batch 32, 24x32 frames),
//   2. naive loop-nest convolution vs the im2col+GEMM layer,
//   3. end-to-end training wall time of the Linear architecture with
//      faithful pre-GEMM layer implementations vs the shipped layers,
//      plus the real ml::fit wall time for reference,
//   4. Sequential::forward vs the compiled plan for every zoo model's nets.
//
// Writes BENCH_ml.json (override with --out=PATH). `--smoke` shrinks
// iteration counts so the binary doubles as a ctest smoke test
// (`ctest -L bench`). Set AUTOLEARN_THREADS to pin the worker count the
// JSON records.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "camera/image.hpp"
#include "ml/conv.hpp"
#include "ml/driving_model.hpp"
#include "ml/gemm.hpp"
#include "ml/plan.hpp"
#include "ml/layers.hpp"
#include "ml/loss.hpp"
#include "ml/optimizer.hpp"
#include "ml/sequential.hpp"
#include "ml/trainer.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace autolearn::bench {
namespace {

using ml::Tensor;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- faithful pre-GEMM layer implementations ------------------------------
// Copies of the loop-nest Conv2D/Dense this PR replaced: batch-parallel
// forward, serial backward with the zero-gradient skip. They are the
// "before" side of the end-to-end comparison.

class NaiveConv2D : public ml::Layer {
 public:
  NaiveConv2D(std::size_t in_channels, std::size_t out_channels,
              std::size_t kernel, std::size_t stride, util::Rng& rng)
      : ic_(in_channels),
        oc_(out_channels),
        k_(kernel),
        stride_(stride),
        w_(Tensor::randn({out_channels, in_channels, kernel, kernel}, rng,
                         std::sqrt(2.0 / static_cast<double>(
                                             in_channels * kernel * kernel)))),
        b_(Tensor({out_channels}, 0.0f)) {}

  Tensor forward(const Tensor& x, bool /*train*/) override {
    last_input_ = x;
    const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
    const std::size_t oh = ml::Conv2D::out_dim(h, k_, stride_);
    const std::size_t ow = ml::Conv2D::out_dim(w, k_, stride_);
    Tensor y({n, oc_, oh, ow});
    const Tensor& wt = w_.value;
    const Tensor& bt = b_.value;
    util::ThreadPool::shared().parallel_for_chunks(
        0, n, [&](std::size_t n0, std::size_t n1) {
          for (std::size_t i = n0; i < n1; ++i) {
            for (std::size_t oc = 0; oc < oc_; ++oc) {
              for (std::size_t oy = 0; oy < oh; ++oy) {
                for (std::size_t ox = 0; ox < ow; ++ox) {
                  float acc = bt[oc];
                  const std::size_t iy0 = oy * stride_, ix0 = ox * stride_;
                  for (std::size_t ic = 0; ic < ic_; ++ic) {
                    for (std::size_t ky = 0; ky < k_; ++ky) {
                      const float* xrow = &x.at(i, ic, iy0 + ky, ix0);
                      const float* wrow = &wt.at(oc, ic, ky, 0);
                      for (std::size_t kx = 0; kx < k_; ++kx) {
                        acc += xrow[kx] * wrow[kx];
                      }
                    }
                  }
                  y.at(i, oc, oy, ox) = acc;
                }
              }
            }
          }
        });
    return y;
  }

  Tensor backward(const Tensor& grad_out) override {
    const Tensor& x = last_input_;
    const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
    const std::size_t oh = ml::Conv2D::out_dim(h, k_, stride_);
    const std::size_t ow = ml::Conv2D::out_dim(w, k_, stride_);
    Tensor grad_in(x.shape());
    const Tensor& wt = w_.value;
    Tensor& dw = w_.grad;
    Tensor& db = b_.grad;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t oc = 0; oc < oc_; ++oc) {
        for (std::size_t oy = 0; oy < oh; ++oy) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const float g = grad_out.at(i, oc, oy, ox);
            if (g == 0.0f) continue;
            db[oc] += g;
            const std::size_t iy0 = oy * stride_, ix0 = ox * stride_;
            for (std::size_t ic = 0; ic < ic_; ++ic) {
              for (std::size_t ky = 0; ky < k_; ++ky) {
                const float* xrow = &x.at(i, ic, iy0 + ky, ix0);
                float* dxrow = &grad_in.at(i, ic, iy0 + ky, ix0);
                float* dwrow = &dw.at(oc, ic, ky, 0);
                const float* wrow = &wt.at(oc, ic, ky, 0);
                for (std::size_t kx = 0; kx < k_; ++kx) {
                  dwrow[kx] += g * xrow[kx];
                  dxrow[kx] += g * wrow[kx];
                }
              }
            }
          }
        }
      }
    }
    return grad_in;
  }

  std::vector<ml::Param*> params() override { return {&w_, &b_}; }
  std::string name() const override { return "naive_conv2d"; }

 private:
  std::size_t ic_, oc_, k_, stride_;
  ml::Param w_, b_;
  Tensor last_input_;
};

class NaiveDense : public ml::Layer {
 public:
  NaiveDense(std::size_t in_features, std::size_t out_features, util::Rng& rng)
      : in_features_(in_features),
        out_features_(out_features),
        w_(Tensor::randn({out_features, in_features}, rng,
                         std::sqrt(2.0 / static_cast<double>(in_features)))),
        b_(Tensor({out_features}, 0.0f)) {}

  Tensor forward(const Tensor& x, bool /*train*/) override {
    last_input_ = x;
    const std::size_t n = x.dim(0);
    Tensor y({n, out_features_});
    const Tensor& w = w_.value;
    const Tensor& b = b_.value;
    util::ThreadPool::shared().parallel_for_chunks(
        0, n, [&](std::size_t b0, std::size_t b1) {
          for (std::size_t i = b0; i < b1; ++i) {
            const float* xi = x.data() + i * in_features_;
            float* yi = y.data() + i * out_features_;
            for (std::size_t o = 0; o < out_features_; ++o) {
              const float* wo = w.data() + o * in_features_;
              float acc = b[o];
              for (std::size_t k = 0; k < in_features_; ++k) {
                acc += wo[k] * xi[k];
              }
              yi[o] = acc;
            }
          }
        });
    return y;
  }

  Tensor backward(const Tensor& grad_out) override {
    const std::size_t n = last_input_.dim(0);
    Tensor grad_in({n, in_features_});
    const Tensor& w = w_.value;
    Tensor& dw = w_.grad;
    Tensor& db = b_.grad;
    for (std::size_t i = 0; i < n; ++i) {
      const float* gi = grad_out.data() + i * out_features_;
      const float* xi = last_input_.data() + i * in_features_;
      float* dxi = grad_in.data() + i * in_features_;
      for (std::size_t o = 0; o < out_features_; ++o) {
        const float g = gi[o];
        if (g == 0.0f) continue;
        db[o] += g;
        float* dwo = dw.data() + o * in_features_;
        const float* wo = w.data() + o * in_features_;
        for (std::size_t k = 0; k < in_features_; ++k) {
          dwo[k] += g * xi[k];
          dxi[k] += g * wo[k];
        }
      }
    }
    return grad_in;
  }

  std::vector<ml::Param*> params() override { return {&w_, &b_}; }
  std::string name() const override { return "naive_dense"; }

 private:
  std::size_t in_features_, out_features_;
  ml::Param w_, b_;
  Tensor last_input_;
};

// --- GEMM shape sweep ------------------------------------------------------

struct GemmShape {
  const char* name;  // which model-zoo layer this is (batch 32, 24x32)
  std::size_t m, n, k;
};

// [OC, C*K*K] @ [C*K*K, N*OH*OW] for the encoder convs, [N, F] @ [F, O]^T
// for the heads; all at the default batch size 32 on 24x32 frames.
constexpr GemmShape kZooShapes[] = {
    {"encoder_conv1", 8, 5280, 9},    // Conv2D 1->8  k3 s2 on 24x32
    {"encoder_conv2", 16, 1120, 72},  // Conv2D 8->16 k3 s2 on 11x15
    {"encoder_conv3", 32, 192, 144},  // Conv2D 16->32 k3 s2 on 5x7
    {"dense_head", 32, 64, 192},      // Dense 192->64
    {"lstm_gates", 32, 128, 192},     // LSTM Wx: [N,D] @ [4H,D]^T
    {"conv3d_stage1", 8, 10560, 18},  // Conv3D 1->8 kd2 k3 sd1 s2, T=3
};

util::Json bench_gemm_shapes(bool smoke) {
  util::Json out = util::Json::array();
  util::Rng rng(1);
  for (const GemmShape& s : kZooShapes) {
    std::vector<float> a(s.m * s.k), b(s.k * s.n), c(s.m * s.n, 0.0f);
    for (float& v : a) v = static_cast<float>(rng.uniform(-1, 1));
    for (float& v : b) v = static_cast<float>(rng.uniform(-1, 1));
    const double flop = 2.0 * static_cast<double>(s.m) *
                        static_cast<double>(s.n) * static_cast<double>(s.k);
    // Repeat until ~0.2s of work (2 reps in smoke mode); report the best
    // rep so scheduling noise does not understate the kernel.
    const int reps =
        smoke ? 2 : std::max(10, static_cast<int>(2e8 / flop));
    ml::sgemm(false, false, s.m, s.n, s.k, 1.0f, a.data(), s.k, b.data(), s.n,
              0.0f, c.data(), s.n);  // warm-up: sizes thread-local packs
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
      const double t0 = now_seconds();
      ml::sgemm(false, false, s.m, s.n, s.k, 1.0f, a.data(), s.k, b.data(),
                s.n, 0.0f, c.data(), s.n);
      best = std::min(best, now_seconds() - t0);
    }
    util::Json row = util::Json::object();
    row.set("name", s.name);
    row.set("m", s.m);
    row.set("n", s.n);
    row.set("k", s.k);
    row.set("gflops", flop / best / 1e9);
    out.push_back(std::move(row));
    std::cout << "  gemm " << s.name << ": " << flop / best / 1e9
              << " GFLOP/s\n";
  }
  return out;
}

// --- naive vs GEMM convolution --------------------------------------------

util::Json bench_conv_speedup(bool smoke) {
  // Encoder stage 2 (8->16, k3, s2 on 11x15), the mid-sized conv of the
  // zoo, forward + backward at batch 32.
  const std::size_t n = 32, ic = 8, oc = 16, h = 11, w = 15, k = 3, s = 2;
  util::Rng rng(2);
  ml::Conv2D fast(ic, oc, k, s, rng);
  util::Rng rng2(2);
  NaiveConv2D naive(ic, oc, k, s, rng2);
  util::Rng data_rng(3);
  const Tensor x = Tensor::randn({n, ic, h, w}, data_rng, 1.0);
  const int reps = smoke ? 2 : 50;

  auto time_layer = [&](ml::Layer& layer) {
    Tensor y = layer.forward(x, true);  // warm-up + shape for grad
    const Tensor grad = Tensor::randn(y.shape(), data_rng, 1.0);
    layer.backward(grad);
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
      const double t0 = now_seconds();
      layer.forward(x, true);
      layer.backward(grad);
      best = std::min(best, now_seconds() - t0);
    }
    return best;
  };

  const double naive_s = time_layer(naive);
  const double gemm_s = time_layer(fast);
  util::Json out = util::Json::object();
  out.set("shape", "conv2d n32 8->16 k3 s2 11x15 fwd+bwd");
  out.set("naive_ms", naive_s * 1e3);
  out.set("gemm_ms", gemm_s * 1e3);
  out.set("speedup", naive_s / gemm_s);
  std::cout << "  conv naive " << naive_s * 1e3 << " ms, gemm "
            << gemm_s * 1e3 << " ms, speedup " << naive_s / gemm_s << "x\n";
  return out;
}

// --- end-to-end training --------------------------------------------------

/// The Linear architecture (encoder + dense head, dropout omitted so both
/// variants run the exact same math).
template <class ConvT, class DenseT>
ml::Sequential build_net(std::uint64_t seed) {
  ml::Sequential net;
  util::Rng rng(seed);
  net.add<ConvT>(1, 8, 3, 2, rng);
  net.add<ml::ReLU>();
  net.add<ConvT>(8, 16, 3, 2, rng);
  net.add<ml::ReLU>();
  net.add<ConvT>(16, 32, 3, 2, rng);
  net.add<ml::ReLU>();
  net.add<ml::Flatten>();
  net.add<DenseT>(static_cast<std::size_t>(192), static_cast<std::size_t>(64),
                  rng);
  net.add<ml::ReLU>();
  net.add<DenseT>(static_cast<std::size_t>(64), static_cast<std::size_t>(2),
                  rng);
  return net;
}

double train_epochs(ml::Sequential& net, const Tensor& images,
                    const Tensor& targets, std::size_t epochs,
                    std::size_t batch_size) {
  ml::Adam opt(2e-3);
  const std::size_t n = images.dim(0);
  const std::size_t img = images.dim(1) * images.dim(2) * images.dim(3);
  const double t0 = now_seconds();
  for (std::size_t e = 0; e < epochs; ++e) {
    for (std::size_t b = 0; b < n; b += batch_size) {
      const std::size_t sz = std::min(batch_size, n - b);
      Tensor xb({sz, images.dim(1), images.dim(2), images.dim(3)});
      std::memcpy(xb.data(), images.data() + b * img, sz * img * sizeof(float));
      Tensor yb({sz, 2});
      std::memcpy(yb.data(), targets.data() + b * 2, sz * 2 * sizeof(float));
      const Tensor pred = net.forward(xb, true);
      auto [loss, grad] = ml::mse_loss(pred, yb);
      net.backward(grad);
      opt.step(net.params());
    }
  }
  return now_seconds() - t0;
}

std::vector<ml::Sample> band_dataset(std::size_t n, const ml::ModelConfig& cfg,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<ml::Sample> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t col = static_cast<std::size_t>(
        rng.uniform_int(2, static_cast<std::int64_t>(cfg.img_w) - 3));
    camera::Image img(cfg.img_w, cfg.img_h, 0.1f);
    for (std::size_t y = 0; y < cfg.img_h; ++y) {
      for (std::size_t dx = 0; dx < 3; ++dx) img.at(col - 1 + dx, y) = 0.9f;
    }
    ml::Sample smp;
    for (std::size_t f = 0; f < cfg.seq_len; ++f) smp.frames.push_back(img);
    const float steer = static_cast<float>(
        2.0 * static_cast<double>(col) / (cfg.img_w - 1) - 1.0);
    for (std::size_t h = 0; h < cfg.history_len; ++h) {
      smp.history.push_back(steer);
      smp.history.push_back(0.5f);
    }
    smp.steering = steer;
    smp.throttle = 0.5f;
    out.push_back(std::move(smp));
  }
  return out;
}

util::Json bench_end_to_end(bool smoke) {
  const std::size_t n = smoke ? 64 : 256;
  const std::size_t epochs = smoke ? 1 : 3;
  const std::size_t batch_size = 32;
  util::Rng data_rng(4);
  Tensor images = Tensor::randn({n, 1, 24, 32}, data_rng, 0.3);
  Tensor targets = Tensor::randn({n, 2}, data_rng, 0.5);

  auto naive_net = build_net<NaiveConv2D, NaiveDense>(9);
  auto gemm_net = build_net<ml::Conv2D, ml::Dense>(9);
  const double naive_s = train_epochs(naive_net, images, targets, epochs,
                                      batch_size);
  const double gemm_s = train_epochs(gemm_net, images, targets, epochs,
                                     batch_size);

  // The real trainer on the real Linear model (with dropout), for the
  // absolute wall-time record.
  ml::ModelConfig cfg;
  cfg.img_w = 32;
  cfg.img_h = 24;
  cfg.lr = 2e-3;
  auto model = ml::make_model(ml::ModelType::Linear, cfg);
  const auto train = band_dataset(n, cfg, 41);
  ml::TrainOptions opt;
  opt.epochs = epochs;
  opt.batch_size = batch_size;
  const ml::TrainResult r = ml::fit(*model, train, {}, opt);

  util::Json out = util::Json::object();
  out.set("architecture", "linear (3xconv2d + 2xdense)");
  out.set("samples", n);
  out.set("epochs", epochs);
  out.set("batch_size", batch_size);
  out.set("naive_seconds", naive_s);
  out.set("gemm_seconds", gemm_s);
  out.set("speedup", naive_s / gemm_s);
  out.set("fit_linear_wall_seconds", r.wall_seconds);
  std::cout << "  fit naive " << naive_s << " s, gemm " << gemm_s
            << " s, speedup " << naive_s / gemm_s << "x (ml::fit "
            << r.wall_seconds << " s)\n";
  return out;
}

// --- interpreted vs compiled forward --------------------------------------

util::Json bench_compiled_plan(bool smoke) {
  // Forward cost of every net of each zoo model at the serving batch size:
  // Sequential::forward(train=false) (tensor allocation per layer per
  // batch) vs the compiled arena program predict_batch runs (zero
  // allocation, fused epilogues), on the same input tensors. Outputs are
  // bitwise-identical (ctest -L plan); only wall time may differ. Frame
  // staging and decode are left out on both sides.
  const std::size_t batch = 32;
  const int reps = smoke ? 3 : 200;
  util::Json out = util::Json::array();
  for (const ml::ModelType type : ml::all_model_types()) {
    ml::ModelConfig cfg;
    const auto model = ml::make_model(type, cfg);
    const std::vector<ml::Sequential*> nets = model->mutable_nets();
    util::Rng rng(17);
    std::vector<ml::Sample> samples(batch);
    for (ml::Sample& s : samples) {
      for (std::size_t f = 0; f < cfg.seq_len; ++f) {
        s.frames.emplace_back(cfg.img_w, cfg.img_h);
      }
      s.history.assign(2 * cfg.history_len, 0.0f);
    }
    std::vector<ml::Prediction> pred(batch);
    model->predict_batch(samples.data(), batch, pred.data());  // compile
    ml::CompiledModel& plan = *model->plan();

    // One input per net, at the rows the plan runs it with.
    std::vector<Tensor> inputs;
    for (std::size_t i = 0; i < nets.size(); ++i) {
      const ml::CompiledNet& net = plan.net(i);
      std::vector<std::size_t> shape{net.max_rows()};
      shape.insert(shape.end(), net.in_shape().begin(), net.in_shape().end());
      Tensor x(shape);
      for (std::size_t k = 0; k < x.size(); ++k) {
        x[k] = static_cast<float>(rng.uniform(-1.0, 1.0));
      }
      inputs.push_back(std::move(x));
    }

    auto best_of = [&](auto&& forward) {
      forward();  // warm-up
      double best = 1e30;
      for (int r = 0; r < reps; ++r) {
        const double t0 = now_seconds();
        forward();
        best = std::min(best, now_seconds() - t0);
      }
      return best;
    };
    const double interp_s = best_of([&] {
      for (std::size_t i = 0; i < nets.size(); ++i) {
        nets[i]->forward(inputs[i], /*train=*/false);
      }
    });
    const double plan_s = best_of([&] {
      for (std::size_t i = 0; i < nets.size(); ++i) {
        ml::CompiledNet& net = plan.net(i);
        std::copy(inputs[i].data(), inputs[i].data() + inputs[i].size(),
                  net.input());
        net.run(net.max_rows());
      }
    });

    util::Json row = util::Json::object();
    row.set("model", std::string(ml::to_string(type)));
    row.set("batch", batch);
    row.set("interpreted_ms", interp_s * 1e3);
    row.set("compiled_ms", plan_s * 1e3);
    row.set("speedup", interp_s / plan_s);
    out.push_back(std::move(row));
    std::cout << "  plan " << ml::to_string(type) << ": Sequential::forward "
              << interp_s * 1e3 << " ms, compiled " << plan_s * 1e3
              << " ms, speedup " << interp_s / plan_s << "x\n";
  }
  return out;
}

int run(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_ml.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      std::cerr << "usage: bench_ml_kernels [--smoke] [--out=PATH]\n";
      return 1;
    }
  }
  const std::size_t threads = util::ThreadPool::shared().size();
  std::cout << "bench_ml_kernels: " << threads << " worker(s)"
            << (smoke ? ", smoke mode" : "") << "\n";

  util::Json doc = util::Json::object();
  doc.set("bench", "ml_kernels");
  doc.set("threads", threads);
  doc.set("smoke", smoke);
  std::cout << "GEMM model-zoo shapes:\n";
  doc.set("gemm", bench_gemm_shapes(smoke));
  std::cout << "convolution lowering:\n";
  doc.set("conv_naive_vs_gemm", bench_conv_speedup(smoke));
  std::cout << "end-to-end training:\n";
  doc.set("fit_end_to_end", bench_end_to_end(smoke));
  std::cout << "interpreted vs compiled forward:\n";
  doc.set("compiled_plan", bench_compiled_plan(smoke));

  const ml::KernelCounters kc = ml::kernel_counters();
  util::Json counters = util::Json::object();
  counters.set("gemm_calls", kc.gemm_calls);
  counters.set("gemm_flops", kc.gemm_flops);
  counters.set("im2col_elems", kc.im2col_elems);
  counters.set("col2im_elems", kc.col2im_elems);
  doc.set("kernel_counters", std::move(counters));

  std::ofstream f(out_path);
  if (!f) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  f << doc.dump(2) << "\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace autolearn::bench

int main(int argc, char** argv) { return autolearn::bench::run(argc, argv); }
