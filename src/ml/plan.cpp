#include "ml/plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "ml/conv.hpp"
#include "ml/gemm.hpp"
#include "ml/layers.hpp"
#include "ml/lstm.hpp"
#include "ml/quant.hpp"
#include "ml/quant_layers.hpp"
#include "util/thread_pool.hpp"

namespace autolearn::ml {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);
// Arena slots start on 64-byte boundaries relative to the arena base, so
// shared slots never split a cache line between two live buffers.
constexpr std::size_t kAlignFloats = 16;

float sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

/// Bytes stored in a float-typed slot: round rows up to whole floats.
std::size_t bytes_as_floats(std::size_t bytes) { return ceil_div(bytes, 4); }

// Contexts for the int8 conv's allocation-free parallel regions. The
// runners are capture-less lambdas (decay to function pointers) so the hot
// path never touches std::function. The fp32 conv needs neither: it runs
// as one conv_fused call.
struct ColCtx {
  const float* x;
  float* col;
  std::size_t c, d, h, w, kd, k, sd, s, p, np, cdhw;
};

struct BiasScatterCtx {
  const float* yall;
  float* y;
  const float* bias;
  std::size_t oc, p, np;
  bool relu;
};

// Interpreted int8 conv epilogue: dst[q] = src[q] + bias, then (as a
// separate layer) dst[q] = dst[q] > 0 ? dst[q] : 0. Fused with a local t
// this is the same float additions and the same compare — bitwise
// identical.
const auto run_bias_scatter = +[](void* pv, std::size_t n0, std::size_t n1) {
  const auto& c = *static_cast<const BiasScatterCtx*>(pv);
  for (std::size_t i = n0; i < n1; ++i) {
    for (std::size_t oc = 0; oc < c.oc; ++oc) {
      const float* src = c.yall + oc * c.np + i * c.p;
      float* dst = c.y + (i * c.oc + oc) * c.p;
      const float bias = c.bias[oc];
      if (c.relu) {
        for (std::size_t q = 0; q < c.p; ++q) {
          const float t = src[q] + bias;
          dst[q] = t > 0.0f ? t : 0.0f;
        }
      } else {
        for (std::size_t q = 0; q < c.p; ++q) dst[q] = src[q] + bias;
      }
    }
  }
};

const auto run_cols = +[](void* pv, std::size_t n0, std::size_t n1) {
  const auto& c = *static_cast<const ColCtx*>(pv);
  // A Conv2D is a depth-1 volume: vol2col is im2col there.
  for (std::size_t i = n0; i < n1; ++i) {
    vol2col(c.x + i * c.cdhw, c.c, c.d, c.h, c.w, c.kd, c.k, c.k, c.sd, c.s,
            c.s, c.col + i * c.p, c.np);
  }
};

enum class Op {
  Conv,       // Conv2D / Conv3D: one conv_fused call (no patch matrix)
  QuantConv,  // the int8 twins: im2col, quantize, qgemm, bias scatter
  Dense,
  Lstm,
  Relu,   // standalone in-place (fused forms never reach here)
  Tanh,   // in-place
  QuantDense,
};

struct Step {
  Op op;
  std::size_t in = kNone, out = kNone;
  std::size_t scr0 = kNone, scr1 = kNone, scr2 = kNone;
  bool fuse_relu = false;

  // Parameter pointers resolved at compile time. Optimizer steps write
  // through them in place; the owning model drops its plan on any load.
  const float* w = nullptr;
  const float* w2 = nullptr;  // LSTM Wh
  const float* bias = nullptr;
  const QuantizedWeights* qw = nullptr;
  const ActQuant* xq = nullptr;
  ConvIndexMap map;  // fp32 conv: where each patch element sits in x

  // Geometry (per-row / per-sample). A 2-D conv is a depth-1 volume.
  std::size_t ic = 0, oc = 0, k = 0, stride = 0, kd = 1, stride_d = 1;
  std::size_t h = 0, w_dim = 0, d_dim = 1;
  std::size_t p = 0, ckk = 0;       // conv: out positions, patch rows
  std::size_t in_f = 0, out_f = 0;  // dense/quantdense; lstm: D, H
  std::size_t t_len = 0;            // lstm
};

struct Value {
  std::size_t row_elems = 0;
  std::size_t plan_elems = 0;  // sized once, not per row (packed weights)
  std::size_t def = 0;       // first step index live
  std::size_t last_use = 0;  // last step index live (inclusive)
  std::size_t offset = 0;    // assigned arena offset (floats)
};

}  // namespace

struct CompiledNet::Impl {
  std::size_t max_rows = 0;
  std::vector<std::size_t> in_shape;
  std::size_t in_elems = 0;   // per row
  std::size_t out_elems = 0;  // per row
  std::size_t out_value = 0;
  bool input_written = false;  // some step writes the input value in place
  std::vector<Step> steps;
  std::vector<Value> values;
  std::vector<float> arena;
  PlanStats stats;

  std::size_t add_value(std::size_t row_elems, std::size_t def,
                        std::size_t last_use, std::size_t plan_elems = 0) {
    values.push_back(Value{row_elems, plan_elems, def, last_use, 0});
    return values.size() - 1;
  }

  void compile(Sequential& net, const std::vector<std::size_t>& in_shape);
  void assign_offsets();
  const float* exec(const float* x, std::size_t rows);
};

void CompiledNet::Impl::compile(Sequential& net,
                                const std::vector<std::size_t>& in_shape) {
  if (net.num_layers() == 0) {
    throw PlanError(PlanError::Code::EmptyModel,
                    "plan: cannot compile an empty model");
  }
  in_elems = 1;
  for (std::size_t d : in_shape) in_elems *= d;
  if (in_elems == 0) {
    throw PlanError(PlanError::Code::BadShape,
                    "plan: zero-element input sample shape");
  }

  std::vector<std::size_t> shape = in_shape;  // current per-row shape
  std::size_t cur = add_value(in_elems, 0, 0);

  const auto elems = [](const std::vector<std::size_t>& s) {
    std::size_t e = 1;
    for (std::size_t d : s) e *= d;
    return e;
  };
  const auto bad_shape = [](const std::string& what) {
    return PlanError(PlanError::Code::BadShape, "plan: " + what);
  };

  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    if (!net.has_layer(li)) {
      throw PlanError(PlanError::Code::NullLayer,
                      "plan: layer slot " + std::to_string(li) +
                          " is null (mid-swap model?)");
    }
    Layer& layer = net.layer(li);
    const std::size_t si = steps.size();
    // A ReLU right after a fusable producer folds into its epilogue.
    const auto fuse_next_relu = [&]() -> bool {
      if (li + 1 >= net.num_layers() || !net.has_layer(li + 1)) return false;
      if (dynamic_cast<ReLU*>(&net.layer(li + 1)) == nullptr) return false;
      ++li;
      ++stats.fused_activations;
      return true;
    };

    // One lowering for all four conv flavours: a Conv2D is a depth-1
    // volume. The fp32 convs need only their packed weights as scratch;
    // the int8 twins keep the patch matrix quantize_activations reads.
    const auto lower_conv = [&](auto& conv, Op op, const char* kind) {
      constexpr bool volumetric = requires { conv.kernel_d(); };
      Step s{};
      s.op = op;
      s.ic = conv.in_channels();
      s.oc = conv.out_channels();
      s.k = conv.kernel();
      s.stride = conv.stride();
      if constexpr (volumetric) {
        s.kd = conv.kernel_d();
        s.stride_d = conv.stride_d();
      }
      const std::size_t rank = volumetric ? 4 : 3;
      if (shape.size() != rank || shape[0] != s.ic ||
          (volumetric && shape[1] < s.kd) || shape[rank - 2] < s.k ||
          shape[rank - 1] < s.k) {
        throw bad_shape(std::string(kind) + " input mismatch");
      }
      s.d_dim = volumetric ? shape[1] : 1;
      s.h = shape[rank - 2];
      s.w_dim = shape[rank - 1];
      const std::size_t od = Conv2D::out_dim(s.d_dim, s.kd, s.stride_d);
      const std::size_t oh = Conv2D::out_dim(s.h, s.k, s.stride);
      const std::size_t ow = Conv2D::out_dim(s.w_dim, s.k, s.stride);
      if constexpr (volumetric) {
        conv.prime_flops(s.d_dim, s.h, s.w_dim);
      } else {
        conv.prime_flops(s.h, s.w_dim);
      }
      s.p = od * oh * ow;
      s.ckk = s.ic * s.kd * s.k * s.k;
      const auto params = conv.params();
      if constexpr (requires { conv.quantized(); }) {
        s.qw = &conv.quantized();
        s.xq = &conv.input_quant();
      } else {
        s.w = params[0]->value.data();
      }
      s.bias = params[1]->value.data();
      s.fuse_relu = fuse_next_relu();
      s.in = cur;
      values[cur].last_use = si;
      if (op == Op::QuantConv) {
        s.scr0 = add_value(s.ckk * s.p, si, si);  // im2col/vol2col patch cols
        s.scr1 = add_value(bytes_as_floats(s.ckk * s.p), si, si);  // q(col)
        s.scr2 = add_value(s.oc * s.p, si, si);  // batched GEMM out
      } else {
        // Checked before the index map is built, so that an oversized
        // sample fails here as a PlanError too.
        if (elems(shape) > static_cast<std::size_t>(
                               std::numeric_limits<std::int32_t>::max()) /
                               max_rows) {
          throw bad_shape(std::string(kind) + " batch exceeds 32-bit offsets");
        }
        s.map = conv_index_map(s.ic, s.d_dim, s.h, s.w_dim, s.kd, s.k, s.k,
                               s.stride_d, s.stride, s.stride);
        s.scr0 = add_value(0, si, si, packed_conv_weights_floats(s.oc, s.ckk));
      }
      s.out = cur = add_value(s.oc * s.p, si, si);
      shape = volumetric ? std::vector<std::size_t>{s.oc, od, oh, ow}
                         : std::vector<std::size_t>{s.oc, oh, ow};
      steps.push_back(s);
    };

    if (auto* conv = dynamic_cast<Conv2D*>(&layer)) {
      lower_conv(*conv, Op::Conv, "conv2d");
    } else if (auto* conv3 = dynamic_cast<Conv3D*>(&layer)) {
      lower_conv(*conv3, Op::Conv, "conv3d");
    } else if (auto* qconv = dynamic_cast<QuantConv2D*>(&layer)) {
      lower_conv(*qconv, Op::QuantConv, "qconv2d");
    } else if (auto* qconv3 = dynamic_cast<QuantConv3D*>(&layer)) {
      lower_conv(*qconv3, Op::QuantConv, "qconv3d");
    } else if (auto* dense = dynamic_cast<Dense*>(&layer)) {
      if (elems(shape) != dense->in_features()) {
        throw bad_shape("dense input mismatch");
      }
      Step s{};
      s.op = Op::Dense;
      s.in_f = dense->in_features();
      s.out_f = dense->out_features();
      const auto params = dense->params();
      s.w = params[0]->value.data();
      s.bias = params[1]->value.data();
      s.fuse_relu = fuse_next_relu();
      s.in = cur;
      values[cur].last_use = si;
      s.out = cur = add_value(s.out_f, si, si);
      shape = {s.out_f};
      steps.push_back(s);
    } else if (auto* lstm = dynamic_cast<LSTM*>(&layer)) {
      if (shape.size() != 2 || shape[1] != lstm->input_size()) {
        throw bad_shape("lstm input mismatch");
      }
      const std::size_t t_len = shape[0];
      lstm->prime_flops(t_len);
      Step s{};
      s.op = Op::Lstm;
      s.t_len = t_len;
      s.in_f = lstm->input_size();
      s.out_f = lstm->hidden_size();
      const auto params = lstm->params();
      s.w = params[0]->value.data();   // Wx [4H, D]
      s.w2 = params[1]->value.data();  // Wh [4H, H]
      s.bias = params[2]->value.data();
      s.in = cur;
      values[cur].last_use = si;
      s.scr0 = add_value(s.in_f, si, si);       // x_t slice
      s.scr1 = add_value(4 * s.out_f, si, si);  // gates
      s.scr2 = add_value(s.out_f, si, si);      // cell state
      s.out = cur = add_value(s.out_f, si, si);
      shape = {s.out_f};
      steps.push_back(s);
    } else if (auto* qdense = dynamic_cast<QuantDense*>(&layer)) {
      if (elems(shape) != qdense->in_features()) {
        throw bad_shape("qdense input mismatch");
      }
      Step s{};
      s.op = Op::QuantDense;
      s.in_f = qdense->in_features();
      s.out_f = qdense->out_features();
      s.qw = &qdense->quantized();
      s.xq = &qdense->input_quant();
      s.bias = qdense->params()[1]->value.data();
      s.fuse_relu = fuse_next_relu();
      s.in = cur;
      values[cur].last_use = si;
      s.scr0 = add_value(bytes_as_floats(s.in_f), si, si);  // q(x)^T bytes
      s.scr1 = add_value(s.out_f, si, si);                  // y^T
      s.out = cur = add_value(s.out_f, si, si);
      shape = {s.out_f};
      steps.push_back(s);
    } else if (dynamic_cast<ReLU*>(&layer) != nullptr) {
      // Only reached when the producer was not fusable (e.g. after a
      // Flatten or as the first layer): in-place pass over the value.
      Step s{};
      s.op = Op::Relu;
      s.in = s.out = cur;
      values[cur].last_use = si;
      if (cur == 0) input_written = true;
      steps.push_back(s);
    } else if (dynamic_cast<Tanh*>(&layer) != nullptr) {
      Step s{};
      s.op = Op::Tanh;
      s.in = s.out = cur;
      values[cur].last_use = si;
      if (cur == 0) input_written = true;
      steps.push_back(s);
    } else if (dynamic_cast<Flatten*>(&layer) != nullptr) {
      shape = {elems(shape)};  // shape-only: the arena is already flat
    } else if (dynamic_cast<Dropout*>(&layer) != nullptr) {
      // Inference identity (plans only serve train=false).
    } else {
      throw PlanError(
          PlanError::Code::UnsupportedLayer,
          "plan: no compiled step for layer '" + layer.name() + "'");
    }
  }

  out_value = cur;
  out_elems = values[cur].row_elems;
  // The output must survive past the last step.
  values[out_value].last_use = steps.size();
  stats.steps = steps.size();
  stats.values = values.size();
  assign_offsets();
}

void CompiledNet::Impl::assign_offsets() {
  // First-fit offset assignment over live intervals, largest-first within
  // each definition point (the classic static memory-planning heuristic;
  // see the worked example in docs/performance.md).
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (values[a].def != values[b].def) return values[a].def < values[b].def;
    if (values[a].row_elems != values[b].row_elems) {
      return values[a].row_elems > values[b].row_elems;
    }
    return a < b;
  });
  struct Placed {
    std::size_t offset, size, def, last_use;
  };
  std::vector<Placed> placed;
  std::size_t high_water = 0, naive = 0;
  for (std::size_t vi : order) {
    Value& v = values[vi];
    const std::size_t size =
        ceil_div(v.row_elems * max_rows + v.plan_elems, kAlignFloats) *
        kAlignFloats;
    naive += size;
    std::vector<Placed> conflicts;
    for (const Placed& p : placed) {
      if (!(p.last_use < v.def || v.last_use < p.def)) conflicts.push_back(p);
    }
    std::sort(conflicts.begin(), conflicts.end(),
              [](const Placed& a, const Placed& b) {
                return a.offset < b.offset;
              });
    std::size_t off = 0;
    for (const Placed& c : conflicts) {
      if (off + size <= c.offset) break;  // fits in the gap before c
      off = std::max(off, c.offset + c.size);
    }
    v.offset = off;
    placed.push_back(Placed{off, size, v.def, v.last_use});
    high_water = std::max(high_water, off + size);
  }
  stats.arena_floats = high_water;
  stats.naive_floats = naive;
  arena.assign(high_water, 0.0f);
}

const float* CompiledNet::Impl::exec(const float* x, std::size_t rows) {
  if (rows == 0 || rows > max_rows) {
    throw PlanError(PlanError::Code::BadBatch,
                    "plan: run() rows " + std::to_string(rows) +
                        " outside [1, " + std::to_string(max_rows) + "]");
  }
  float* const base = arena.data();
  // External input with an in-place step on value 0: copy into the
  // staging slot rather than scribbling on the caller's buffer.
  if (input_written && x != base + values[0].offset) {
    std::memcpy(base + values[0].offset, x, rows * in_elems * sizeof(float));
    x = base + values[0].offset;
  }
  const auto at = [&](std::size_t vi) { return base + values[vi].offset; };
  const auto src_of = [&](std::size_t vi) -> const float* {
    return vi == 0 ? x : at(vi);
  };
  auto& pool = util::ThreadPool::shared();
  const std::size_t n = rows;

  for (const Step& s : steps) {
    switch (s.op) {
      case Op::Conv: {
        // Repacked every run: optimizer steps write the weights in place.
        float* packed = at(s.scr0);
        pack_conv_weights(s.w, s.oc, s.ckk, packed);
        conv_fused(src_of(s.in), n, s.map, packed, s.oc, s.bias, s.fuse_relu,
                   at(s.out));
        break;
      }
      case Op::QuantConv: {
        const std::size_t np = n * s.p;
        float* col = at(s.scr0);
        ColCtx cc{src_of(s.in), col, s.ic, s.d_dim, s.h, s.w_dim, s.kd, s.k,
                  s.stride_d, s.stride, s.p, np,
                  s.ic * s.d_dim * s.h * s.w_dim};
        pool.parallel_for_chunks_raw(0, n, run_cols, &cc);
        auto* qcol = reinterpret_cast<std::uint8_t*>(at(s.scr1));
        quantize_activations(col, s.ckk * np, *s.xq, qcol);
        float* yall = at(s.scr2);
        qgemm(*s.qw, qcol, np, *s.xq, yall, np);
        BiasScatterCtx bc{yall, at(s.out), s.bias, s.oc, s.p, np, s.fuse_relu};
        pool.parallel_for_chunks_raw(0, n, run_bias_scatter, &bc);
        break;
      }
      case Op::Dense: {
        float* y = at(s.out);
        for (std::size_t i = 0; i < n; ++i) {
          float* yi = y + i * s.out_f;
          for (std::size_t o = 0; o < s.out_f; ++o) yi[o] = s.bias[o];
        }
        sgemm(false, true, n, s.out_f, s.in_f, 1.0f, src_of(s.in), s.in_f,
              s.w, s.in_f, 1.0f, y, s.out_f);
        if (s.fuse_relu) {
          const std::size_t total = n * s.out_f;
          for (std::size_t i = 0; i < total; ++i) {
            y[i] = y[i] > 0.0f ? y[i] : 0.0f;
          }
        }
        break;
      }
      case Op::Lstm: {
        const std::size_t d = s.in_f, hs = s.out_f, t_len = s.t_len;
        const float* xin = src_of(s.in);  // [n, T*D] == [n, T, D]
        float* xt = at(s.scr0);
        float* gates = at(s.scr1);
        float* c = at(s.scr2);
        float* h = at(s.out);
        std::fill(h, h + n * hs, 0.0f);
        std::fill(c, c + n * hs, 0.0f);
        for (std::size_t t = 0; t < t_len; ++t) {
          for (std::size_t i = 0; i < n; ++i) {
            const float* row = xin + (i * t_len + t) * d;
            std::memcpy(xt + i * d, row, d * sizeof(float));
          }
          for (std::size_t i = 0; i < n; ++i) {
            float* gi = gates + i * 4 * hs;
            for (std::size_t r = 0; r < 4 * hs; ++r) gi[r] = s.bias[r];
          }
          sgemm(false, true, n, 4 * hs, d, 1.0f, xt, d, s.w, d, 1.0f, gates,
                4 * hs);
          // h still holds h_{t-1} here: the GEMM consumes it before the
          // elementwise update below overwrites it in place.
          sgemm(false, true, n, 4 * hs, hs, 1.0f, h, hs, s.w2, hs, 1.0f,
                gates, 4 * hs);
          for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < hs; ++j) {
              const float gi = sigmoid(gates[i * 4 * hs + j]);
              const float gf = sigmoid(gates[i * 4 * hs + hs + j]);
              const float gg = std::tanh(gates[i * 4 * hs + 2 * hs + j]);
              const float go = sigmoid(gates[i * 4 * hs + 3 * hs + j]);
              const float cv = gf * c[i * hs + j] + gi * gg;
              c[i * hs + j] = cv;
              h[i * hs + j] = go * std::tanh(cv);
            }
          }
        }
        break;
      }
      case Op::Relu: {
        float* buf = at(s.out);
        const std::size_t total = n * values[s.out].row_elems;
        for (std::size_t i = 0; i < total; ++i) {
          buf[i] = buf[i] > 0.0f ? buf[i] : 0.0f;
        }
        break;
      }
      case Op::Tanh: {
        float* buf = at(s.out);
        const std::size_t total = n * values[s.out].row_elems;
        for (std::size_t i = 0; i < total; ++i) buf[i] = std::tanh(buf[i]);
        break;
      }
      case Op::QuantDense: {
        const float* xin = src_of(s.in);
        auto* qx = reinterpret_cast<std::uint8_t*>(at(s.scr0));
        for (std::size_t i = 0; i < n; ++i) {
          const float* xr = xin + i * s.in_f;
          for (std::size_t p = 0; p < s.in_f; ++p) {
            qx[p * n + i] = quantize_activation(xr[p], *s.xq);
          }
        }
        float* yt = at(s.scr1);
        qgemm(*s.qw, qx, n, *s.xq, yt, n);
        float* y = at(s.out);
        for (std::size_t i = 0; i < n; ++i) {
          float* yr = y + i * s.out_f;
          for (std::size_t o = 0; o < s.out_f; ++o) {
            const float t = yt[o * n + i] + s.bias[o];
            yr[o] = s.fuse_relu ? (t > 0.0f ? t : 0.0f) : t;
          }
        }
        break;
      }
    }
  }
  return src_of(out_value);
}

CompiledNet::CompiledNet(Sequential& net,
                         const std::vector<std::size_t>& in_sample_shape,
                         std::size_t max_rows)
    : impl_(std::make_unique<Impl>()) {
  if (max_rows == 0) {
    throw PlanError(PlanError::Code::BadBatch, "plan: max rows must be >= 1");
  }
  impl_->max_rows = max_rows;
  impl_->in_shape = in_sample_shape;
  impl_->compile(net, in_sample_shape);
}

CompiledNet::~CompiledNet() = default;

float* CompiledNet::input() {
  return impl_->arena.data() + impl_->values[0].offset;
}
const std::vector<std::size_t>& CompiledNet::in_shape() const {
  return impl_->in_shape;
}
std::size_t CompiledNet::in_row_elems() const { return impl_->in_elems; }
std::size_t CompiledNet::out_row_elems() const { return impl_->out_elems; }
std::size_t CompiledNet::max_rows() const { return impl_->max_rows; }

const float* CompiledNet::run(std::size_t rows) {
  return impl_->exec(input(), rows);
}
const float* CompiledNet::run(const float* x, std::size_t rows) {
  return impl_->exec(x, rows);
}

const PlanStats& CompiledNet::stats() const { return impl_->stats; }

CompiledModel::CompiledModel(std::size_t max_batch) : max_batch_(max_batch) {
  if (max_batch == 0) {
    throw PlanError(PlanError::Code::BadBatch, "plan: max batch must be >= 1");
  }
}

CompiledModel::~CompiledModel() = default;

CompiledNet& CompiledModel::add_net(
    Sequential& net, const std::vector<std::size_t>& in_sample_shape,
    std::size_t max_rows) {
  nets_.push_back(std::make_unique<CompiledNet>(net, in_sample_shape, max_rows));
  return *nets_.back();
}

PlanStats CompiledModel::stats() const {
  PlanStats total;
  for (const auto& n : nets_) {
    const PlanStats& s = n->stats();
    total.steps += s.steps;
    total.values += s.values;
    total.arena_floats += s.arena_floats;
    total.naive_floats += s.naive_floats;
    total.fused_activations += s.fused_activations;
  }
  return total;
}

}  // namespace autolearn::ml
