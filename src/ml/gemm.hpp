// The matmul backbone of the ml module: a cache-blocked, register-tiled
// single-precision GEMM plus the im2col/col2im lowering helpers that turn
// convolution into matrix multiplication (the standard cuDNN-style
// lowering, here on CPU), and conv_fused, the inference convolution that
// reads its patches straight from the image instead.
//
// All matrices are row-major with explicit leading dimensions, so views
// into larger buffers (e.g. one time-step slice of an [N, T, D] tensor)
// work directly.
//
// Determinism contract: for a given problem shape the reduction over k
// runs in one fixed order (KC-sized blocks ascending, elements ascending
// within a block), and parallel workers own disjoint tiles of C — no two
// threads ever accumulate into the same output element. Results are
// therefore bitwise identical regardless of the worker count, which is
// what keeps ml::fit() reproducible under any AUTOLEARN_THREADS setting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace autolearn::ml {

/// C[m,n] = alpha * op(A)[m,k] @ op(B)[k,n] + beta * C   (row-major).
/// op(X) is X or X^T per the trans flag; lda/ldb are the leading
/// dimensions of the *stored* matrices. When beta == 0 the output is
/// overwritten without being read (uninitialized scratch is fine).
/// `parallel` distributes C tiles over the shared ThreadPool; it must be
/// false when the caller already runs inside a pool task (the pool does
/// not support nested parallel sections).
void sgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, const float* a, std::size_t lda,
           const float* b, std::size_t ldb, float beta, float* c,
           std::size_t ldc, bool parallel = true);

/// im2col for valid (unpadded) convolution, channels-first layout.
/// x: one image [C, H, W]. Writes the patch matrix with one row per
/// kernel tap (row index (ic*KH + ky)*KW + kx, matching a flattened
/// [OC, C, KH, KW] weight tensor) and one column per output position
/// (oy*OW + ox). Row r of the patch matrix starts at col + r*col_stride,
/// so a whole batch can share one [C*KH*KW, N*OH*OW] matrix with each
/// sample occupying a disjoint column band.
void im2col(const float* x, std::size_t c, std::size_t h, std::size_t w,
            std::size_t kh, std::size_t kw, std::size_t sh, std::size_t sw,
            float* col, std::size_t col_stride);

/// Adjoint of im2col: accumulates the patch matrix back into the image
/// (x must be zeroed by the caller first). Overlapping windows sum.
void col2im(const float* col, std::size_t col_stride, std::size_t c,
            std::size_t h, std::size_t w, std::size_t kh, std::size_t kw,
            std::size_t sh, std::size_t sw, float* x);

/// 3D (depth/frame axis) variants for Conv3D: volume [C, D, H, W], row
/// index ((ic*KD + kz)*KH + ky)*KW + kx, column index (oz*OH + oy)*OW + ox.
void vol2col(const float* x, std::size_t c, std::size_t d, std::size_t h,
             std::size_t w, std::size_t kd, std::size_t kh, std::size_t kw,
             std::size_t sd, std::size_t sh, std::size_t sw, float* col,
             std::size_t col_stride);
void col2vol(const float* col, std::size_t col_stride, std::size_t c,
             std::size_t d, std::size_t h, std::size_t w, std::size_t kd,
             std::size_t kh, std::size_t kw, std::size_t sd, std::size_t sh,
             std::size_t sw, float* x);

/// The im2col/vol2col index map of one valid convolution over a batch
/// stored [N, C, D, H, W] (a 2-D conv has D = KD = 1). Patch row
/// r = ((ic*KD + kz)*KH + ky)*KW + kx of output position
/// q = (oz*OH + oy)*OW + ox in sample i is the input element
/// x[i * sample_elems + pos[q] + taps[r]] — exactly what im2col copies
/// into the patch matrix, so a kernel can read patches without one.
struct ConvIndexMap {
  std::vector<std::int32_t> taps;  // one offset per patch row (C*KD*KH*KW)
  std::vector<std::int32_t> pos;   // one offset per output position (P)
  std::size_t sample_elems = 0;    // C*D*H*W
};

/// Builds the map; throws std::invalid_argument when a sample does not fit
/// 32-bit offsets or the kernel exceeds the input.
ConvIndexMap conv_index_map(std::size_t c, std::size_t d, std::size_t h,
                            std::size_t w, std::size_t kd, std::size_t kh,
                            std::size_t kw, std::size_t sd, std::size_t sh,
                            std::size_t sw);

/// Floats pack_conv_weights writes for an [oc, ckk] weight matrix.
std::size_t packed_conv_weights_floats(std::size_t oc, std::size_t ckk);
/// Repacks row-major W[oc, ckk] into conv_fused's layout: blocks of four
/// output channels, each ckk groups of four weights (zero-padded past oc).
void pack_conv_weights(const float* w, std::size_t oc, std::size_t ckk,
                       float* packed);

/// Kernel body selection for conv_fused. Auto resolves once per process by
/// the sgemm micro-kernel's rule; the explicit bodies let tests pin each.
enum class ConvIsa { Auto, Portable, Avx2 };
bool conv_isa_supported(ConvIsa isa);

/// Fused convolution forward over a batch of n samples, no patch matrix:
///   y[i, o, q] = act(bias[o] + Σ_r W[o, r] * x[i*sample_elems + pos[q] +
///   taps[r]])
/// with act = ReLU when `relu`, y laid out [n, oc, P]. Batch columns
/// (i, q) are packed NR at a time straight from x through the index map
/// (a panel may span samples) and run against `packed_w`
/// (pack_conv_weights) in a register tile whose epilogue adds the bias
/// and applies max(t, 0).
///
/// Bitwise contract: every output equals im2col + sgemm(W, col) + bias
/// (+ ReLU) — the same multiply-add chain ascending in r from +0, split
/// into sgemm's KC-deep blocks whose sums are added in order, then the
/// same bias add and the same compare. Records one GEMM call of
/// 2*oc*n*P*ckk flops in kernel_counters(). Panel ranges go to the shared
/// ThreadPool (allocation-free raw dispatch); do not call from inside a
/// pool task. Throws std::invalid_argument when the batch does not fit
/// 32-bit offsets or `isa` names an unsupported body.
void conv_fused(const float* x, std::size_t n, const ConvIndexMap& map,
                const float* packed_w, std::size_t oc, const float* bias,
                bool relu, float* y, ConvIsa isa = ConvIsa::Auto);

/// Reusable scratch buffers for the layer hot paths: capacity only grows,
/// so after the first batch the im2col/GEMM pipeline performs no
/// allocation. Slots are caller-defined small integers (one per distinct
/// buffer a layer needs).
class ScratchArena {
 public:
  /// Buffer of at least n floats for `slot`. Contents are unspecified.
  /// The pointer stays valid until the next get() call for the same slot
  /// with a larger n.
  float* get(std::size_t slot, std::size_t n) {
    if (slot >= slots_.size()) slots_.resize(slot + 1);
    if (slots_[slot].size() < n) slots_[slot].resize(n);
    return slots_[slot].data();
  }

 private:
  std::vector<std::vector<float>> slots_;
};

/// Process-wide kernel workload counters (monotonic totals). fit()
/// publishes per-run deltas through obs::MetricsRegistry so traces and
/// the GPU performance model see real workload numbers.
struct KernelCounters {
  std::uint64_t gemm_calls = 0;
  std::uint64_t gemm_flops = 0;     // 2*m*n*k per call
  std::uint64_t im2col_elems = 0;   // patch-matrix elements written
  std::uint64_t col2im_elems = 0;   // patch-matrix elements accumulated
  std::uint64_t qgemm_calls = 0;    // int8 GEMM calls (quant.hpp)
  std::uint64_t qgemm_ops = 0;      // 2*m*n*k integer MACs per qgemm call
};

/// Snapshot of the totals accumulated so far in this process.
KernelCounters kernel_counters();

/// Raises glibc's M_MMAP_THRESHOLD so the interpreted layer-by-layer
/// path's recurring per-batch tensors stay on the heap instead of being
/// mmap'd/munmap'd every batch (~20x demand-paging tax, measured — see
/// docs/performance.md). Idempotent; called lazily from the interpreted
/// entry points (ml::fit). The compiled-plan path (ml/plan.hpp) does not
/// need it: plans run out of a preallocated arena. Set
/// AUTOLEARN_MMAP_TUNE=0 to disable (A/B measurements).
void tune_interpreted_allocator();

namespace detail {
/// Internal: the int8 kernels (quant.cpp) publish into the shared
/// counters so eval/obs see one workload ledger.
void record_qgemm(std::uint64_t ops);
}  // namespace detail

}  // namespace autolearn::ml
