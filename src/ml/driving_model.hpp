// The six DonkeyCar model types (SC-W'23 §3.3: "AutoLearn comes with six
// tested models, including linear, memory, 3D, categorical, inferred, and
// RNN"), implemented on the from-scratch layer library.
//
//   linear       conv encoder -> dense -> (steering, throttle), MSE
//   categorical  conv encoder -> dense -> 15 steering bins + 20 throttle
//                bins, softmax cross-entropy per head
//   inferred     small conv encoder -> steering only; throttle inferred
//                from steering at inference time (fast on straights) —
//                the model the paper found best
//   memory       conv features concatenated with the last N commands
//   rnn          shared conv encoder per frame -> LSTM -> dense
//   3d           Conv3D over a short frame stack -> dense
//
// All models consume Sample observations; sequence models read the last
// seq_len() frames, the memory model reads history_len() command pairs.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "camera/image.hpp"
#include "ml/optimizer.hpp"
#include "ml/sequential.hpp"

namespace autolearn::ml {

class CompiledModel;  // ml/plan.hpp

/// One labeled observation. For on-line inference the labels are ignored.
struct Sample {
  std::vector<camera::Image> frames;  // oldest first; >= model seq_len
  std::vector<float> history;         // [steer, throttle] pairs, newest last
  float steering = 0.0f;              // label in [-1, 1]
  float throttle = 0.0f;              // label in [0, 1]
};

struct Prediction {
  double steering = 0.0;
  double throttle = 0.0;
};

enum class ModelType { Linear, Categorical, Inferred, Memory, Rnn, Conv3d };

/// Numeric precision of a model's forward path. Quantized wrappers
/// (ml::QuantizedModel) report Int8 so eval and the serving tiers price
/// latency with the matching device throughput.
enum class Precision { Fp32, Int8 };

const char* to_string(Precision precision);
const char* to_string(ModelType type);
ModelType model_type_from_string(const std::string& name);
/// All six types in the paper's listing order.
std::vector<ModelType> all_model_types();

struct ModelConfig {
  std::size_t img_w = 32;
  std::size_t img_h = 24;
  std::size_t seq_len = 3;       // rnn / 3d frame stack
  std::size_t history_len = 3;   // memory model: command pairs
  std::size_t steering_bins = 15;
  std::size_t throttle_bins = 20;
  double lr = 1e-3;
  double dropout = 0.1;
  std::uint64_t seed = 42;
  // Inferred-model throttle policy: fast when the wheel is straight.
  // Calibrated closed-loop on the paper oval: faster than the expert's
  // demonstrations on straights while keeping off-track errors rare.
  double inferred_throttle_base = 0.45;
  double inferred_throttle_gain = 0.30;
};

class DrivingModel {
 public:
  virtual ~DrivingModel() = default;

  virtual ModelType type() const = 0;
  std::string type_name() const { return to_string(type()); }

  /// Frames required per observation (1 for single-frame models).
  virtual std::size_t seq_len() const { return 1; }
  /// Command pairs required in Sample::history (0 if unused).
  virtual std::size_t history_len() const { return 0; }

  /// Inference on one observation. The zoo models implement this as
  /// predict_batch of 1, so the two entry points agree bitwise.
  virtual Prediction predict(const Sample& obs) = 0;

  /// Batched inference: fills out[0..n) from obs[0..n). The zoo models
  /// run one batched forward through their compiled plan (one im2col +
  /// sgemm per layer instead of n), which is what makes fleet serving
  /// amortize per-call cost. The plan is compiled on first use, recompiled
  /// at std::bit_ceil(n) when a batch outgrows it, and dropped by load,
  /// load_full and mutable_nets. The base implementation is a per-sample
  /// fallback loop for external subclasses.
  virtual void predict_batch(const Sample* obs, std::size_t n,
                             Prediction* out);

  /// One optimizer step on a minibatch; returns the batch loss.
  virtual double train_batch(const std::vector<const Sample*>& batch) = 0;

  /// Loss without updating parameters.
  virtual double eval_batch(const std::vector<const Sample*>& batch) = 0;

  virtual std::size_t num_parameters() = 0;

  /// Forward multiply-accumulates per sample; the training workload for
  /// the GPU performance model is ~3x this per sample (fwd + bwd).
  virtual std::uint64_t flops_per_sample() const = 0;

  virtual void save(std::ostream& os) = 0;
  virtual void load(std::istream& is) = 0;

  /// Forward-path precision; Fp32 unless wrapped by a quantized variant.
  virtual Precision precision() const { return Precision::Fp32; }

  /// The compiled forward (ml/plan.hpp) the zoo models run every
  /// prediction through, compiling it first if no batch has yet; nullptr
  /// for external subclasses, which have none.
  virtual CompiledModel* plan() { return nullptr; }

  /// The Sequential stacks predict_batch runs, exposed for post-training
  /// transforms: ml::quantize_model swaps Dense/Conv layers for int8
  /// twins in place. The zoo models return their nets and drop their plan
  /// (it holds raw layer pointers); external subclasses keep the empty
  /// default and simply cannot be quantized.
  virtual std::vector<Sequential*> mutable_nets() { return {}; }

  /// Full training-state snapshot: parameters PLUS optimizer slots, layer
  /// RNG streams and the model's own init/dropout RNG. A fit resumed from
  /// save_full continues bitwise-identically to an uninterrupted run; a
  /// plain save/load pair does not (Adam moments and dropout masks reset).
  /// Defaults to save/load for external subclasses with no extra state.
  virtual void save_full(std::ostream& os) { save(os); }
  virtual void load_full(std::istream& is) { load(is); }
};

std::unique_ptr<DrivingModel> make_model(ModelType type,
                                         const ModelConfig& config = {});

/// Self-describing checkpoint payload: model type + full ModelConfig +
/// save_full bytes, so a reader can reconstruct the model without any
/// out-of-band knowledge (used by serve::ModelRegistry warm starts).
void save_model_bundle(std::ostream& os, DrivingModel& model,
                       const ModelConfig& config);

struct LoadedModelBundle {
  std::unique_ptr<DrivingModel> model;
  ModelConfig config;
};

/// Rebuilds the model named in the stream and restores its full state.
/// Throws ModelLoadError on a malformed or truncated bundle.
LoadedModelBundle load_model_bundle(std::istream& is);

}  // namespace autolearn::ml
