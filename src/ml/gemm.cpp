#include "ml/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "util/thread_pool.hpp"

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

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define AUTOLEARN_GEMM_DISPATCH 1
[[gnu::target("avx2,fma")]] void micro_kernel_avx2(std::size_t kc,
                                                   const float* __restrict pa,
                                                   const float* __restrict pb,
                                                   float out[MR][NR]) {
  AUTOLEARN_MICRO_KERNEL_BODY
}
#endif

using MicroKernelFn = void (*)(std::size_t, const float*, const float*,
                               float[MR][NR]);

MicroKernelFn pick_micro_kernel() {
#ifdef AUTOLEARN_GEMM_DISPATCH
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return micro_kernel_avx2;
  }
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
