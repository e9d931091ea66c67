#include "ml/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "util/thread_pool.hpp"

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define AUTOLEARN_GEMM_DISPATCH 1
#include <immintrin.h>
#endif

namespace autolearn::ml {
namespace {

// Register microtile. MR x NR accumulators must fit the baseline SSE2
// register file (16 xmm): 4 rows x 8 columns = 8 vector accumulators plus
// broadcast/load temporaries. The inner loops are written so the compiler
// auto-vectorizes the NR axis.
constexpr std::size_t MR = 4;
constexpr std::size_t NR = 8;

// Cache blocking: KC-deep panels are packed so the microkernel streams
// contiguously; MC/NC are also the parallel tile sizes, so the C
// decomposition is a pure function of the problem shape (never of the
// worker count — see the determinism contract in gemm.hpp).
constexpr std::size_t KC = 256;
constexpr std::size_t MC = 96;   // multiple of MR
constexpr std::size_t NC = 384;  // multiple of NR

static_assert(MC % MR == 0 && NC % NR == 0);

std::atomic<std::uint64_t> g_gemm_calls{0};
std::atomic<std::uint64_t> g_gemm_flops{0};
std::atomic<std::uint64_t> g_im2col_elems{0};
std::atomic<std::uint64_t> g_col2im_elems{0};
std::atomic<std::uint64_t> g_qgemm_calls{0};
std::atomic<std::uint64_t> g_qgemm_ops{0};

// Packing scratch is per worker thread and only ever grows, so steady
// state does no allocation.
thread_local std::vector<float> tl_pack_a;
thread_local std::vector<float> tl_pack_b;

inline const float& at(const float* x, std::size_t ld, bool trans,
                       std::size_t row, std::size_t col) {
  return trans ? x[col * ld + row] : x[row * ld + col];
}

/// Packs op(A)[i0:i0+mt, p0:p0+kc] as MR-wide row panels: panel ir holds
/// kc groups of MR consecutive row values (zero-padded past mt).
void pack_a(const float* a, std::size_t lda, bool trans, std::size_t i0,
            std::size_t mt, std::size_t p0, std::size_t kc, float* pa) {
  for (std::size_t ir = 0; ir < mt; ir += MR) {
    const std::size_t mr = std::min(MR, mt - ir);
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t i = 0; i < MR; ++i) {
        *pa++ = i < mr ? at(a, lda, trans, i0 + ir + i, p0 + p) : 0.0f;
      }
    }
  }
}

/// Packs op(B)[p0:p0+kc, j0:j0+nt] as NR-wide column panels: panel jr
/// holds kc groups of NR consecutive column values (zero-padded past nt).
void pack_b(const float* b, std::size_t ldb, bool trans, std::size_t p0,
            std::size_t kc, std::size_t j0, std::size_t nt, float* pb) {
  for (std::size_t jr = 0; jr < nt; jr += NR) {
    const std::size_t nr = std::min(NR, nt - jr);
    if (!trans && nr == NR) {
      // Hot case: contiguous rows of B, full panel — straight copies.
      for (std::size_t p = 0; p < kc; ++p) {
        std::memcpy(pb, b + (p0 + p) * ldb + j0 + jr, NR * sizeof(float));
        pb += NR;
      }
      continue;
    }
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t j = 0; j < NR; ++j) {
        *pb++ = j < nr ? at(b, ldb, trans, p0 + p, j0 + jr + j) : 0.0f;
      }
    }
  }
}

/// acc[MR][NR] += pa-panel @ pb-panel over kc. Both panels are packed and
/// zero-padded, so no bounds checks; the j loop vectorizes. The same
/// source is compiled twice — once for the portable baseline ISA and once
/// for AVX2+FMA — and the best supported variant is chosen at process
/// start, so the default (-march-less) build still uses wide FMAs on
/// modern x86. Selection is a process-wide constant: it cannot vary with
/// the worker count, so the determinism contract holds.
// The accumulators live in a local array whose address never escapes, so
// the compiler keeps all MR*NR of them in vector registers across the k
// loop (passing `out` directly would force a spill per iteration because
// it could alias the panels).
#define AUTOLEARN_MICRO_KERNEL_BODY                                    \
  float acc[MR][NR] = {};                                              \
  for (std::size_t p = 0; p < kc; ++p) {                               \
    const float* bp = pb + p * NR;                                     \
    const float* ap = pa + p * MR;                                     \
    for (std::size_t i = 0; i < MR; ++i) {                             \
      const float av = ap[i];                                          \
      for (std::size_t j = 0; j < NR; ++j) acc[i][j] += av * bp[j];    \
    }                                                                  \
  }                                                                    \
  for (std::size_t i = 0; i < MR; ++i) {                               \
    for (std::size_t j = 0; j < NR; ++j) out[i][j] = acc[i][j];        \
  }

void micro_kernel_base(std::size_t kc, const float* __restrict pa,
                       const float* __restrict pb, float out[MR][NR]) {
  AUTOLEARN_MICRO_KERNEL_BODY
}

#ifdef AUTOLEARN_GEMM_DISPATCH
[[gnu::target("avx2,fma")]] void micro_kernel_avx2(std::size_t kc,
                                                   const float* __restrict pa,
                                                   const float* __restrict pb,
                                                   float out[MR][NR]) {
  AUTOLEARN_MICRO_KERNEL_BODY
}
#endif

using MicroKernelFn = void (*)(std::size_t, const float*, const float*,
                               float[MR][NR]);

// The one ISA rule, resolved once per process: sgemm's micro-kernel and
// conv_fused's body are both picked by it, so a compiled conv and the
// layer's own forward always run the same multiply-add arithmetic.
#ifdef AUTOLEARN_GEMM_DISPATCH
const bool g_avx2_fma =
    __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
const bool g_avx2_fma = false;
#endif

MicroKernelFn pick_micro_kernel() {
#ifdef AUTOLEARN_GEMM_DISPATCH
  if (g_avx2_fma) return micro_kernel_avx2;
#endif
  return micro_kernel_base;
}

const MicroKernelFn micro_kernel = pick_micro_kernel();

/// One C tile [i0:i0+mt, j0:j0+nt], full reduction over k in fixed KC
/// order. Runs entirely on the calling thread.
void gemm_tile(bool trans_a, bool trans_b, std::size_t i0, std::size_t mt,
               std::size_t j0, std::size_t nt, std::size_t k, float alpha,
               const float* a, std::size_t lda, const float* b,
               std::size_t ldb, float beta, float* c, std::size_t ldc) {
  const std::size_t mt_pad = (mt + MR - 1) / MR * MR;
  const std::size_t nt_pad = (nt + NR - 1) / NR * NR;
  if (tl_pack_a.size() < mt_pad * KC) tl_pack_a.resize(mt_pad * KC);
  if (tl_pack_b.size() < nt_pad * KC) tl_pack_b.resize(nt_pad * KC);
  float* pa = tl_pack_a.data();
  float* pb = tl_pack_b.data();

  for (std::size_t p0 = 0; p0 < k; p0 += KC) {
    const std::size_t kc = std::min(KC, k - p0);
    const bool first = p0 == 0;
    pack_b(b, ldb, trans_b, p0, kc, j0, nt, pb);
    pack_a(a, lda, trans_a, i0, mt, p0, kc, pa);
    for (std::size_t jr = 0; jr < nt; jr += NR) {
      const std::size_t nr = std::min(NR, nt - jr);
      const float* pbj = pb + (jr / NR) * kc * NR;
      for (std::size_t ir = 0; ir < mt; ir += MR) {
        const std::size_t mr = std::min(MR, mt - ir);
        const float* pai = pa + (ir / MR) * kc * MR;
        float acc[MR][NR] = {};
        micro_kernel(kc, pai, pbj, acc);
        for (std::size_t i = 0; i < mr; ++i) {
          float* cp = c + (i0 + ir + i) * ldc + j0 + jr;
          if (first) {
            if (beta == 0.0f) {
              for (std::size_t j = 0; j < nr; ++j) cp[j] = alpha * acc[i][j];
            } else {
              for (std::size_t j = 0; j < nr; ++j) {
                cp[j] = beta * cp[j] + alpha * acc[i][j];
              }
            }
          } else {
            for (std::size_t j = 0; j < nr; ++j) cp[j] += alpha * acc[i][j];
          }
        }
      }
    }
  }
}

// --- Fused convolution (conv_fused) -----------------------------------
//
// Register tile: CMR output channels x CNR batch columns (two 8-float
// vectors), eight accumulators — enough independent FMA chains to cover
// the FMA latency. Both bodies below share the panel geometry, the
// packing order and the scalar epilogue; they differ only in whether a
// multiply-add is one fused FMA (as in micro_kernel_avx2) or a multiply
// then an add (as in micro_kernel_base).
constexpr std::size_t CMR = 4;
constexpr std::size_t CNR = 16;

struct ConvCtx {
  const float* x;
  const ConvIndexMap* map;
  const float* a;  // pack_conv_weights layout
  const float* bias;
  float* y;
  std::size_t oc, ckk, p, cols;
  bool relu;
};

/// Column geometry of the panel of batch columns [c0, c0 + nc): lane j is
/// column c = i*P + q, whose patch starts at x + src[j] and whose channel-0
/// output is y[dst[j]]. Lanes past the last column repeat lane 0, so the
/// packers never read outside x.
struct Panel {
  alignas(32) std::int32_t src[CNR];
  std::size_t dst[CNR];
  std::size_t nc;
  bool contiguous;  // CNR lanes of one sample: dst[j] == dst[0] + j
};

Panel panel_at(const ConvCtx& c, std::size_t c0) {
  Panel pn;
  pn.nc = std::min(CNR, c.cols - c0);
  std::size_t i = c0 / c.p, q = c0 % c.p;
  pn.contiguous = pn.nc == CNR && q + CNR <= c.p;
  for (std::size_t j = 0; j < CNR; ++j) {
    if (j < pn.nc) {
      pn.src[j] = static_cast<std::int32_t>(i * c.map->sample_elems) +
                  c.map->pos[q];
      pn.dst[j] = i * c.oc * c.p + q;
      if (++q == c.p) {
        q = 0;
        ++i;
      }
    } else {
      pn.src[j] = pn.src[0];
      pn.dst[j] = pn.dst[0];
    }
  }
  return pn;
}

/// Writes rows [0, mr) x the valid lanes of one KC block's tile into y
/// (at channel o0): sgemm's C = acc on the first block and C += acc after
/// it, then, on the last block, the interpreted bias add and ReLU compare.
void store_tile(const float (&tile)[CMR][CNR], const Panel& pn,
                std::size_t mr, std::size_t p, const float* bias, bool first,
                bool last, bool relu, float* y) {
  for (std::size_t i = 0; i < mr; ++i) {
    for (std::size_t j = 0; j < pn.nc; ++j) {
      float* dst = y + i * p + pn.dst[j];
      float t = first ? tile[i][j] : *dst + tile[i][j];
      if (last) {
        t = t + bias[i];
        if (relu) t = t > 0.0f ? t : 0.0f;
      }
      *dst = t;
    }
  }
}

/// Panels [t0, t1) of a conv_fused call: per KC block, gather the panel's
/// patch rows into pb, then run every CMR-channel block against it.
void conv_panels_portable(void* pv, std::size_t t0, std::size_t t1) {
  const ConvCtx& c = *static_cast<const ConvCtx*>(pv);
  float pb[KC * CNR];
  for (std::size_t t = t0; t < t1; ++t) {
    const Panel pn = panel_at(c, t * CNR);
    for (std::size_t p0 = 0; p0 < c.ckk; p0 += KC) {
      const std::size_t kc = std::min(KC, c.ckk - p0);
      const std::int32_t* taps = c.map->taps.data() + p0;
      for (std::size_t r = 0; r < kc; ++r) {
        const float* xr = c.x + taps[r];
        for (std::size_t j = 0; j < CNR; ++j) pb[r * CNR + j] = xr[pn.src[j]];
      }
      for (std::size_t o0 = 0; o0 < c.oc; o0 += CMR) {
        const float* pa = c.a + o0 * c.ckk + p0 * CMR;
        float acc[CMR][CNR] = {};
        for (std::size_t r = 0; r < kc; ++r) {
          for (std::size_t i = 0; i < CMR; ++i) {
            const float av = pa[r * CMR + i];
            for (std::size_t j = 0; j < CNR; ++j) {
              acc[i][j] += av * pb[r * CNR + j];
            }
          }
        }
        store_tile(acc, pn, std::min(CMR, c.oc - o0), c.p, c.bias + o0,
                   p0 == 0, p0 + kc == c.ckk, c.relu, c.y + o0 * c.p);
      }
    }
  }
}

#ifdef AUTOLEARN_GEMM_DISPATCH
/// Epilogue of one tile row held in registers, for a panel that fits one
/// KC block and one sample: t = acc + bias, then max(t, 0), which equals
/// t > 0 ? t : 0 for -0.0 and NaN too (max_ps returns its second operand
/// unless the first is greater).
[[gnu::target("avx2,fma"), gnu::always_inline]] inline void store_row_avx2(
    __m256 v0, __m256 v1, float bias, bool relu, float* dst) {
  const __m256 b = _mm256_set1_ps(bias);
  v0 = _mm256_add_ps(v0, b);
  v1 = _mm256_add_ps(v1, b);
  if (relu) {
    v0 = _mm256_max_ps(v0, _mm256_setzero_ps());
    v1 = _mm256_max_ps(v1, _mm256_setzero_ps());
  }
  _mm256_storeu_ps(dst, v0);
  _mm256_storeu_ps(dst + 8, v1);
}

/// Gathers patch rows taps[0, kc) of a panel's lanes into pb. Kept out of
/// line so the index vectors do not compete with the tile's accumulators
/// for registers.
[[gnu::target("avx2,fma"), gnu::noinline]] void pack_panel_avx2(
    const float* x, const std::int32_t* taps, std::size_t kc,
    const Panel& pn, float* pb) {
  const __m256i lo =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(pn.src));
  const __m256i hi =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(pn.src + 8));
  for (std::size_t r = 0; r < kc; ++r, pb += CNR) {
    const float* xr = x + taps[r];
    _mm256_store_ps(pb, _mm256_i32gather_ps(xr, lo, 4));
    _mm256_store_ps(pb + 8, _mm256_i32gather_ps(xr, hi, 4));
  }
}

/// The same walk with AVX2 gathers for the packing and _mm256_fmadd_ps
/// for the tile. The eight accumulators are named locals, so they stay in
/// registers across the k loop.
[[gnu::target("avx2,fma")]] void conv_panels_avx2(void* pv, std::size_t t0,
                                                  std::size_t t1) {
  const ConvCtx& c = *static_cast<const ConvCtx*>(pv);
  alignas(32) float pb[KC * CNR];
  for (std::size_t t = t0; t < t1; ++t) {
    const Panel pn = panel_at(c, t * CNR);
    for (std::size_t p0 = 0; p0 < c.ckk; p0 += KC) {
      const std::size_t kc = std::min(KC, c.ckk - p0);
      const bool first = p0 == 0, last = p0 + kc == c.ckk;
      pack_panel_avx2(c.x, c.map->taps.data() + p0, kc, pn, pb);
      for (std::size_t o0 = 0; o0 < c.oc; o0 += CMR) {
        const float* pa = c.a + o0 * c.ckk + p0 * CMR;
        const float* bp = pb;
        __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
        __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
        __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
        __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
        for (std::size_t r = 0; r < kc; ++r, pa += CMR, bp += CNR) {
          const __m256 b0 = _mm256_load_ps(bp);
          const __m256 b1 = _mm256_load_ps(bp + 8);
          __m256 a = _mm256_broadcast_ss(pa);
          c00 = _mm256_fmadd_ps(a, b0, c00);
          c01 = _mm256_fmadd_ps(a, b1, c01);
          a = _mm256_broadcast_ss(pa + 1);
          c10 = _mm256_fmadd_ps(a, b0, c10);
          c11 = _mm256_fmadd_ps(a, b1, c11);
          a = _mm256_broadcast_ss(pa + 2);
          c20 = _mm256_fmadd_ps(a, b0, c20);
          c21 = _mm256_fmadd_ps(a, b1, c21);
          a = _mm256_broadcast_ss(pa + 3);
          c30 = _mm256_fmadd_ps(a, b0, c30);
          c31 = _mm256_fmadd_ps(a, b1, c31);
        }
        const std::size_t mr = std::min(CMR, c.oc - o0);
        const float* bias = c.bias + o0;
        float* yo = c.y + o0 * c.p;
        if (first && last && pn.contiguous) {
          float* dst = yo + pn.dst[0];
          store_row_avx2(c00, c01, bias[0], c.relu, dst);
          if (mr > 1) store_row_avx2(c10, c11, bias[1], c.relu, dst + c.p);
          if (mr > 2) store_row_avx2(c20, c21, bias[2], c.relu, dst + 2 * c.p);
          if (mr > 3) store_row_avx2(c30, c31, bias[3], c.relu, dst + 3 * c.p);
        } else {
          alignas(32) float tile[CMR][CNR];
          _mm256_store_ps(tile[0], c00);
          _mm256_store_ps(tile[0] + 8, c01);
          _mm256_store_ps(tile[1], c10);
          _mm256_store_ps(tile[1] + 8, c11);
          _mm256_store_ps(tile[2], c20);
          _mm256_store_ps(tile[2] + 8, c21);
          _mm256_store_ps(tile[3], c30);
          _mm256_store_ps(tile[3] + 8, c31);
          store_tile(tile, pn, mr, c.p, bias, first, last, c.relu, yo);
        }
      }
    }
  }
}
#endif

}  // namespace

void tune_interpreted_allocator() {
  // The interpreted layer-by-layer forward/backward (training and
  // eval_batch) allocates fresh per-batch tensors
  // whose sizes sit just above glibc's default 128 KiB mmap threshold. An
  // mmap'd block is munmap'd on free, so the next batch's identically-
  // sized allocation gets a fresh zero-filled mapping and every pass over
  // it pays demand paging — measured at ~20x the cost of streaming a
  // recycled heap block (glibc's dynamic threshold ratchets to exactly
  // the freed size, so the largest recurring tensor stays mmap'd
  // forever). Raising the threshold keeps these blocks on the heap where
  // freed chunks are reused warm. The compiled-plan path (ml/plan.hpp)
  // needs none of this — it runs out of a preallocated arena — so the
  // tuning is applied lazily from the interpreted entry points (ml::fit)
  // instead of at static init. AUTOLEARN_MMAP_TUNE=0 disables it for A/B
  // measurements. No effect on numerical results.
  static const bool tuned = [] {
#if defined(__GLIBC__)
    const char* env = std::getenv("AUTOLEARN_MMAP_TUNE");
    if (env == nullptr || std::strcmp(env, "0") != 0) {
      mallopt(M_MMAP_THRESHOLD, 64 << 20);
    }
#endif
    return true;
  }();
  (void)tuned;
}

void sgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, const float* a, std::size_t lda,
           const float* b, std::size_t ldb, float beta, float* c,
           std::size_t ldc, bool parallel) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    for (std::size_t i = 0; i < m; ++i) {
      float* cp = c + i * ldc;
      if (beta == 0.0f) {
        std::fill(cp, cp + n, 0.0f);
      } else if (beta != 1.0f) {
        for (std::size_t j = 0; j < n; ++j) cp[j] *= beta;
      }
    }
    return;
  }
  g_gemm_calls.fetch_add(1, std::memory_order_relaxed);
  g_gemm_flops.fetch_add(2ull * m * n * k, std::memory_order_relaxed);

  const std::size_t m_tiles = (m + MC - 1) / MC;
  const std::size_t n_tiles = (n + NC - 1) / NC;
  const std::size_t tiles = m_tiles * n_tiles;
  // The parallel dispatch goes through the allocation-free raw chunk
  // primitive (function pointer + context, no std::function) so a GEMM
  // inside a compiled plan performs zero heap allocation. Tile -> C
  // region is a pure function of the tile index, so the chunking (and the
  // execution order) cannot affect results.
  struct TileCtx {
    bool trans_a, trans_b;
    std::size_t m, n, k;
    float alpha;
    const float* a;
    std::size_t lda;
    const float* b;
    std::size_t ldb;
    float beta;
    float* c;
    std::size_t ldc, n_tiles;
  };
  TileCtx ctx{trans_a, trans_b, m,   n, k,   alpha, a,
              lda,     b,       ldb, beta, c, ldc,   n_tiles};
  const auto run_tiles = +[](void* p, std::size_t t0, std::size_t t1) {
    const TileCtx& ctx = *static_cast<const TileCtx*>(p);
    for (std::size_t t = t0; t < t1; ++t) {
      const std::size_t i0 = (t / ctx.n_tiles) * MC;
      const std::size_t j0 = (t % ctx.n_tiles) * NC;
      gemm_tile(ctx.trans_a, ctx.trans_b, i0, std::min(MC, ctx.m - i0), j0,
                std::min(NC, ctx.n - j0), ctx.k, ctx.alpha, ctx.a, ctx.lda,
                ctx.b, ctx.ldb, ctx.beta, ctx.c, ctx.ldc);
    }
  };
  // Small problems are not worth a pool dispatch regardless of tiling.
  const bool tiny = 2ull * m * n * k < (1ull << 16);
  if (!parallel || tiles == 1 || tiny) {
    run_tiles(&ctx, 0, tiles);
  } else {
    util::ThreadPool::shared().parallel_for_chunks_raw(0, tiles, run_tiles,
                                                       &ctx);
  }
}

void im2col(const float* x, std::size_t c, std::size_t h, std::size_t w,
            std::size_t kh, std::size_t kw, std::size_t sh, std::size_t sw,
            float* col, std::size_t col_stride) {
  vol2col(x, c, 1, h, w, 1, kh, kw, 1, sh, sw, col, col_stride);
}

void col2im(const float* col, std::size_t col_stride, std::size_t c,
            std::size_t h, std::size_t w, std::size_t kh, std::size_t kw,
            std::size_t sh, std::size_t sw, float* x) {
  col2vol(col, col_stride, c, 1, h, w, 1, kh, kw, 1, sh, sw, x);
}

void vol2col(const float* x, std::size_t c, std::size_t d, std::size_t h,
             std::size_t w, std::size_t kd, std::size_t kh, std::size_t kw,
             std::size_t sd, std::size_t sh, std::size_t sw, float* col,
             std::size_t col_stride) {
  const std::size_t od = (d - kd) / sd + 1;
  const std::size_t oh = (h - kh) / sh + 1;
  const std::size_t ow = (w - kw) / sw + 1;
  std::size_t r = 0;
  for (std::size_t ic = 0; ic < c; ++ic) {
    for (std::size_t kz = 0; kz < kd; ++kz) {
      for (std::size_t ky = 0; ky < kh; ++ky) {
        for (std::size_t kx = 0; kx < kw; ++kx) {
          const float* src = x + ((ic * d + kz) * h + ky) * w + kx;
          float* dst = col + r * col_stride;
          for (std::size_t oz = 0; oz < od; ++oz) {
            for (std::size_t oy = 0; oy < oh; ++oy) {
              const float* row = src + (oz * sd * h + oy * sh) * w;
              if (sw == 1) {
                std::memcpy(dst, row, ow * sizeof(float));
                dst += ow;
              } else {
                for (std::size_t ox = 0; ox < ow; ++ox) dst[ox] = row[ox * sw];
                dst += ow;
              }
            }
          }
          ++r;
        }
      }
    }
  }
  g_im2col_elems.fetch_add(
      static_cast<std::uint64_t>(r) * od * oh * ow, std::memory_order_relaxed);
}

void col2vol(const float* col, std::size_t col_stride, std::size_t c,
             std::size_t d, std::size_t h, std::size_t w, std::size_t kd,
             std::size_t kh, std::size_t kw, std::size_t sd, std::size_t sh,
             std::size_t sw, float* x) {
  const std::size_t od = (d - kd) / sd + 1;
  const std::size_t oh = (h - kh) / sh + 1;
  const std::size_t ow = (w - kw) / sw + 1;
  std::size_t r = 0;
  for (std::size_t ic = 0; ic < c; ++ic) {
    for (std::size_t kz = 0; kz < kd; ++kz) {
      for (std::size_t ky = 0; ky < kh; ++ky) {
        for (std::size_t kx = 0; kx < kw; ++kx) {
          float* dst = x + ((ic * d + kz) * h + ky) * w + kx;
          const float* src = col + r * col_stride;
          for (std::size_t oz = 0; oz < od; ++oz) {
            for (std::size_t oy = 0; oy < oh; ++oy) {
              float* row = dst + (oz * sd * h + oy * sh) * w;
              for (std::size_t ox = 0; ox < ow; ++ox) {
                row[ox * sw] += src[ox];
              }
              src += ow;
            }
          }
          ++r;
        }
      }
    }
  }
  g_col2im_elems.fetch_add(
      static_cast<std::uint64_t>(r) * od * oh * ow, std::memory_order_relaxed);
}

ConvIndexMap conv_index_map(std::size_t c, std::size_t d, std::size_t h,
                            std::size_t w, std::size_t kd, std::size_t kh,
                            std::size_t kw, std::size_t sd, std::size_t sh,
                            std::size_t sw) {
  if (kd == 0 || kh == 0 || kw == 0 || sd == 0 || sh == 0 || sw == 0 ||
      kd > d || kh > h || kw > w) {
    throw std::invalid_argument("conv_index_map: bad kernel geometry");
  }
  ConvIndexMap m;
  m.sample_elems = c * d * h * w;
  if (m.sample_elems > std::numeric_limits<std::int32_t>::max()) {
    throw std::invalid_argument("conv_index_map: sample exceeds 32 bits");
  }
  const auto i32 = [](std::size_t v) { return static_cast<std::int32_t>(v); };
  for (std::size_t ic = 0; ic < c; ++ic) {
    for (std::size_t kz = 0; kz < kd; ++kz) {
      for (std::size_t ky = 0; ky < kh; ++ky) {
        for (std::size_t kx = 0; kx < kw; ++kx) {
          m.taps.push_back(i32(((ic * d + kz) * h + ky) * w + kx));
        }
      }
    }
  }
  const std::size_t od = (d - kd) / sd + 1;
  const std::size_t oh = (h - kh) / sh + 1;
  const std::size_t ow = (w - kw) / sw + 1;
  for (std::size_t oz = 0; oz < od; ++oz) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        m.pos.push_back(i32((oz * sd * h + oy * sh) * w + ox * sw));
      }
    }
  }
  return m;
}

std::size_t packed_conv_weights_floats(std::size_t oc, std::size_t ckk) {
  return (oc + CMR - 1) / CMR * CMR * ckk;
}

void pack_conv_weights(const float* w, std::size_t oc, std::size_t ckk,
                       float* packed) {
  for (std::size_t o0 = 0; o0 < oc; o0 += CMR) {
    float* block = packed + o0 * ckk;
    for (std::size_t p = 0; p < ckk; ++p) {
      for (std::size_t i = 0; i < CMR; ++i) {
        block[p * CMR + i] = o0 + i < oc ? w[(o0 + i) * ckk + p] : 0.0f;
      }
    }
  }
}

bool conv_isa_supported(ConvIsa isa) {
  return isa != ConvIsa::Avx2 || g_avx2_fma;
}

void conv_fused(const float* x, std::size_t n, const ConvIndexMap& map,
                const float* packed_w, std::size_t oc, const float* bias,
                bool relu, float* y, ConvIsa isa) {
  const std::size_t ckk = map.taps.size(), p = map.pos.size();
  const std::size_t cols = n * p;
  if (cols == 0 || oc == 0 || ckk == 0) return;
  if (n * map.sample_elems > std::numeric_limits<std::int32_t>::max()) {
    throw std::invalid_argument("conv_fused: batch exceeds 32-bit offsets");
  }
  if (!conv_isa_supported(isa)) {
    throw std::invalid_argument("conv_fused: requested ISA not supported");
  }
  if (isa == ConvIsa::Auto) {
    isa = g_avx2_fma ? ConvIsa::Avx2 : ConvIsa::Portable;
  }
  const std::uint64_t flops = 2ull * oc * cols * ckk;
  g_gemm_calls.fetch_add(1, std::memory_order_relaxed);
  g_gemm_flops.fetch_add(flops, std::memory_order_relaxed);

  ConvCtx ctx{x, &map, packed_w, bias, y, oc, ckk, p, cols, relu};
  util::ThreadPool::RawChunkFn body = conv_panels_portable;
#ifdef AUTOLEARN_GEMM_DISPATCH
  if (isa == ConvIsa::Avx2) body = conv_panels_avx2;
#endif
  // Panel -> output columns is a pure function of the panel index, so the
  // chunking cannot affect results; small problems skip the dispatch, as
  // in sgemm.
  const std::size_t panels = (cols + CNR - 1) / CNR;
  if (flops < (1ull << 16)) {
    body(&ctx, 0, panels);
  } else {
    util::ThreadPool::shared().parallel_for_chunks_raw(0, panels, body, &ctx);
  }
}

KernelCounters kernel_counters() {
  KernelCounters k;
  k.gemm_calls = g_gemm_calls.load(std::memory_order_relaxed);
  k.gemm_flops = g_gemm_flops.load(std::memory_order_relaxed);
  k.im2col_elems = g_im2col_elems.load(std::memory_order_relaxed);
  k.col2im_elems = g_col2im_elems.load(std::memory_order_relaxed);
  k.qgemm_calls = g_qgemm_calls.load(std::memory_order_relaxed);
  k.qgemm_ops = g_qgemm_ops.load(std::memory_order_relaxed);
  return k;
}

namespace detail {
void record_qgemm(std::uint64_t ops) {
  g_qgemm_calls.fetch_add(1, std::memory_order_relaxed);
  g_qgemm_ops.fetch_add(ops, std::memory_order_relaxed);
}
}  // namespace detail

}  // namespace autolearn::ml
