// Graph-compiled forward path with a static arena memory plan.
//
// Sequential::forward walks the layers one by one, every layer allocating
// its output Tensor (and often scratch) per batch; training needs that.
// Inference runs through CompiledNet, which does the walk ONCE: compile()
// lowers the layer list into a flat step program (one conv_fused call per
// conv + ReLU, packing GEMM panels straight from the image; gate GEMMs
// onto preallocated scratch for the LSTM; packed int8 steps for the
// quantized twins), runs a liveness analysis over every intermediate
// buffer, and first-fit assigns them into ONE float arena sized for a
// fixed batch cap.
// Steady-state execution then performs zero heap allocations: staging,
// GEMMs and epilogues all run inside the arena through the ThreadPool's
// raw (allocation-free) dispatch.
//
// Bitwise contract: every output element of a compiled step goes through
// the same float operations in the same order as in the layer's own
// forward (same multiply-add chain and KC blocking, same epilogue
// arithmetic), so outputs are bit-identical to
// Sequential::forward(train=false) for every batch size up to the cap.
// ctest -L plan holds this as an oracle across every net of the model
// zoo, fp32 and int8.
#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ml/sequential.hpp"

namespace autolearn::ml {

/// Typed compile/execute failure. Mirrors ModelLoadError: callers switch
/// on code(); what() carries the human-readable detail.
class PlanError : public std::runtime_error {
 public:
  enum class Code {
    EmptyModel,        // Sequential with no layers
    NullLayer,         // a slot transiently holds null (mid-swap)
    UnsupportedLayer,  // layer type the compiler has no step for
    BadShape,          // input sample shape inconsistent with the layers
    BadBatch,          // max rows == 0, or run() rows out of [1, max]
  };

  PlanError(Code code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  Code code() const { return code_; }

 private:
  Code code_;
};

/// Compile-time accounting, exposed for tests ("sharing beats the naive
/// sum") and the benches.
struct PlanStats {
  std::size_t steps = 0;              // executable steps (no-ops dropped)
  std::size_t values = 0;             // liveness-tracked buffers
  std::size_t arena_floats = 0;       // arena size after slot sharing
  std::size_t naive_floats = 0;       // sum of value sizes (no sharing)
  std::size_t fused_activations = 0;  // ReLUs folded into producers
};

/// One Sequential compiled for a fixed row cap. Rows are the net's batch
/// dimension — the RNN encoder compiles with max_rows = batch * seq_len
/// since time is folded into the batch axis there.
class CompiledNet {
 public:
  /// Compiles immediately; throws PlanError on empty nets, null slots,
  /// unsupported layers or shape mismatches. `in_sample_shape` is the
  /// per-row shape (no batch dim), e.g. {1, 24, 32} for a conv encoder.
  CompiledNet(Sequential& net, const std::vector<std::size_t>& in_sample_shape,
              std::size_t max_rows);
  ~CompiledNet();
  CompiledNet(const CompiledNet&) = delete;
  CompiledNet& operator=(const CompiledNet&) = delete;

  /// Staging buffer for the input, [max_rows, in_row_elems] row-major
  /// inside the arena. Callers write the batch here, then run(rows).
  float* input();
  /// Per-row input shape the net was compiled for (in_sample_shape).
  const std::vector<std::size_t>& in_shape() const;
  std::size_t in_row_elems() const;
  std::size_t out_row_elems() const;
  std::size_t max_rows() const;

  /// Executes the step program on the staged input; returns the output,
  /// [rows, out_row_elems] row-major, valid until the next run. Throws
  /// PlanError{BadBatch} when rows is 0 or exceeds the cap. Performs no
  /// heap allocation (after kernel warm-up) — see docs/performance.md.
  const float* run(std::size_t rows);
  /// Same, reading the input from `x` instead of the staging buffer (used
  /// by the RNN head, which consumes the encoder's output in place).
  const float* run(const float* x, std::size_t rows);

  const PlanStats& stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// A model's full compiled forward: one CompiledNet per Sequential it
/// owns, plus the batch cap the plan was specialized for. Built by the
/// zoo models on first use (DrivingModel::predict_batch).
class CompiledModel {
 public:
  explicit CompiledModel(std::size_t max_batch);
  ~CompiledModel();
  CompiledModel(const CompiledModel&) = delete;
  CompiledModel& operator=(const CompiledModel&) = delete;

  CompiledNet& add_net(Sequential& net,
                       const std::vector<std::size_t>& in_sample_shape,
                       std::size_t max_rows);
  /// The nets in add_net order.
  std::size_t num_nets() const { return nets_.size(); }
  CompiledNet& net(std::size_t i) { return *nets_.at(i); }

  std::size_t max_batch() const { return max_batch_; }
  /// Aggregate over every net.
  PlanStats stats() const;

 private:
  std::size_t max_batch_;
  std::vector<std::unique_ptr<CompiledNet>> nets_;
};

}  // namespace autolearn::ml
