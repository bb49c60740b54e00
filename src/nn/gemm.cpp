#include "nn/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <type_traits>

#if defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
#define IOB_GEMM_SSE2 1
#include <emmintrin.h>
#endif

// Runtime-dispatched tiers above SSE2 (gcc/clang, x86-64): the AVX f32 tile
// and the AVX2 / AVX-512BW int8 kernels, each a target()-attributed function
// picked by a CPUID check. No tier changes a result. The int8 kernels
// accumulate exactly in int32. Every f32 lane runs the seed sequence at any
// vector width: the bias, then one rounded mul and one rounded add per k, in
// increasing k. Only an FMA, which rounds once, would change bits, and
// -ffp-contract=off (CMakeLists.txt) keeps the compiler from fusing.
#if IOB_GEMM_SSE2 && (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
#define IOB_GEMM_DISPATCH 1
#include <immintrin.h>
#endif

#if defined(__GNUC__) || defined(__clang__)
#define IOB_GEMM_INLINE inline __attribute__((always_inline))
#else
#define IOB_GEMM_INLINE inline
#endif

#include "common/expect.hpp"

namespace iob::nn {

namespace {

/// Dispatch-tier cap for the test hook (INT_MAX = full auto).
std::atomic<int> g_dispatch_cap{std::numeric_limits<int>::max()};

#if IOB_GEMM_DISPATCH
/// Tier 1: the AVX f32 tile.
bool cpu_has_avx() {
  static const bool v = __builtin_cpu_supports("avx") != 0;
  return v && g_dispatch_cap.load(std::memory_order_relaxed) >= 1;
}

/// Tier 1: the AVX2 int8 kernels.
bool cpu_has_avx2() {
  static const bool v = __builtin_cpu_supports("avx2") != 0;
  return v && g_dispatch_cap.load(std::memory_order_relaxed) >= 1;
}

/// Tier 2: the AVX-512BW int8 kernels.
bool cpu_has_avx512() {
  static const bool v =
      __builtin_cpu_supports("avx512f") != 0 && __builtin_cpu_supports("avx512bw") != 0;
  return v && g_dispatch_cap.load(std::memory_order_relaxed) >= 2;
}
#endif

/// The scalar relu tail: the exact per-element expression of
/// `Relu::forward_into` (cap <= 0 = uncapped).
inline float apply_tail(float cap, float v) {
  v = std::max(0.0f, v);
  if (cap > 0.0f) v = std::min(cap, v);
  return v;
}

// ---- f32 register tile ------------------------------------------------------
//
// One kMr x (2 * kLanes) tile, written once over a per-tier vector-ops
// struct: SSE2 (4 lanes, 4x8) and AVX (8 lanes, 4x16). `mul_add` is a
// rounded mul, then a rounded add, so each lane repeats the seed loop's
// `acc += a * b`. The relu tail is max(0, v), then min(cap, v), with the
// same operand order on every tier. The ops take vectors by reference: the
// template is also instantiated outside any target("avx") function, where a
// __m256 passed by value would change the ABI. Every AVX use is inlined into
// `tile_columns_avx`, which carries the target.

#if IOB_GEMM_SSE2
struct Sse2Ops {
  using V = __m128;
  static constexpr int kLanes = 4;
  static void load(V& v, const float* p) { v = _mm_loadu_ps(p); }
  static void store(float* p, const V& v) { _mm_storeu_ps(p, v); }
  static void set1(V& v, float x) { v = _mm_set1_ps(x); }
  static void mul_add(V& acc, const V& a, const V& b) { acc = _mm_add_ps(acc, _mm_mul_ps(a, b)); }
  static void relu(V& v, float cap) {
    v = _mm_max_ps(_mm_setzero_ps(), v);
    if (cap > 0.0f) v = _mm_min_ps(_mm_set1_ps(cap), v);
  }
  /// Broadcast the kMr consecutive panel values at p: one load, four shuffles.
  static void splat4(V (&a)[kMr], const float* p) {
    const V v = _mm_loadu_ps(p);
    a[0] = _mm_shuffle_ps(v, v, 0x00);
    a[1] = _mm_shuffle_ps(v, v, 0x55);
    a[2] = _mm_shuffle_ps(v, v, 0xAA);
    a[3] = _mm_shuffle_ps(v, v, 0xFF);
  }
};
using BaseOps = Sse2Ops;
#else
/// Portable stand-in for SSE2: four scalar lanes, each the seed expression.
struct ScalarOps {
  struct V {
    float f[4];
  };
  static constexpr int kLanes = 4;
  static void load(V& v, const float* p) { std::memcpy(v.f, p, sizeof v.f); }
  static void store(float* p, const V& v) { std::memcpy(p, v.f, sizeof v.f); }
  static void set1(V& v, float x) { std::fill(v.f, v.f + kLanes, x); }
  static void mul_add(V& acc, const V& a, const V& b) {
    for (int l = 0; l < kLanes; ++l) acc.f[l] += a.f[l] * b.f[l];
  }
  static void relu(V& v, float cap) {
    for (float& x : v.f) x = apply_tail(cap, x);
  }
  static void splat4(V (&a)[kMr], const float* p) {
    for (int i = 0; i < kMr; ++i) set1(a[i], p[i]);
  }
};
using BaseOps = ScalarOps;
#endif
static_assert(kMr == 4 && 2 * BaseOps::kLanes == kNr, "the base tile is kMr x kNr");

#if IOB_GEMM_DISPATCH
#define IOB_AVX __attribute__((target("avx")))
struct AvxOps {
  using V = __m256;
  static constexpr int kLanes = 8;
  IOB_AVX static void load(V& v, const float* p) { v = _mm256_loadu_ps(p); }
  IOB_AVX static void store(float* p, const V& v) { _mm256_storeu_ps(p, v); }
  IOB_AVX static void set1(V& v, float x) { v = _mm256_set1_ps(x); }
  IOB_AVX static void mul_add(V& acc, const V& a, const V& b) {
    acc = _mm256_add_ps(acc, _mm256_mul_ps(a, b));
  }
  IOB_AVX static void relu(V& v, float cap) {
    v = _mm256_max_ps(_mm256_setzero_ps(), v);
    if (cap > 0.0f) v = _mm256_min_ps(_mm256_set1_ps(cap), v);
  }
};
#endif

/// A as strided rows (`gemm_blocked`): term k of row i at p[i * K + k].
struct RowsA {
  const float* p;
  std::int64_t K;
  float at(std::int64_t i, std::int64_t k) const { return p[i * K + k]; }
  RowsA block(std::int64_t m, std::int64_t k0) const { return {p + m * K + k0, K}; }
};

/// A as kMr-row panels (`gemm_blocked_pa`): term k of row i at p[k * kMr + i].
struct PanelA {
  const float* p;
  std::int64_t K;
  float at(std::int64_t i, std::int64_t k) const { return p[k * kMr + i]; }
  PanelA block(std::int64_t m, std::int64_t k0) const {
    return {p + (m / kMr) * (kMr * K) + k0 * kMr, K};
  }
};

template <class Ops>
IOB_GEMM_INLINE void broadcast_a(const RowsA& a, std::int64_t k, typename Ops::V (&av)[kMr]) {
  for (int i = 0; i < kMr; ++i) Ops::set1(av[i], a.at(i, k));
}

template <class Ops>
IOB_GEMM_INLINE void broadcast_a(const PanelA& a, std::int64_t k, typename Ops::V (&av)[kMr]) {
  Ops::splat4(av, a.p + k * kMr);
}

/// One K block of one kMr-row strip of C: B rows [k0, k0 + kc) at b, C rows
/// at c. On the first K block C starts from the bias row; afterwards the
/// partial sums re-load from C, so every element accumulates in plain
/// increasing-k order over the whole K range. A non-null `tail` (final K
/// block only) applies the fused relu while the tile is still in registers.
struct Strip {
  std::int64_t kc, N;
  const float* b;
  float* c;
  const float* bias;
  bool first;
  const GemmTail* tail;
};

/// The register tile on columns [n, n + 2 * Ops::kLanes) of a strip.
template <class Ops, class A>
IOB_GEMM_INLINE void f32_tile(const A& a, const Strip& s, std::int64_t n) {
  using V = typename Ops::V;
  constexpr int W = Ops::kLanes;
  // Locals, not reads through `s`: the intrinsic stores may alias anything.
  const std::int64_t N = s.N;
  const std::int64_t kc = s.kc;
  const float* b = s.b + n;
  float* c = s.c + n;
  const float* bias = s.bias != nullptr ? s.bias + n : nullptr;
  const GemmTail* tail = s.tail;
  V acc[kMr][2];
  for (int i = 0; i < kMr; ++i) {
    for (int h = 0; h < 2; ++h) {
      if (!s.first) {
        Ops::load(acc[i][h], c + i * N + h * W);
      } else if (bias != nullptr) {
        Ops::load(acc[i][h], bias + h * W);
      } else {
        Ops::set1(acc[i][h], 0.0f);
      }
    }
  }
  for (std::int64_t k = 0; k < kc; ++k) {
    V b0, b1, av[kMr];
    Ops::load(b0, b + k * N);
    Ops::load(b1, b + k * N + W);
    broadcast_a<Ops>(a, k, av);
    for (int i = 0; i < kMr; ++i) {
      Ops::mul_add(acc[i][0], av[i], b0);
      Ops::mul_add(acc[i][1], av[i], b1);
    }
  }
  if (tail != nullptr) {
    for (auto& row : acc) {
      for (V& v : row) Ops::relu(v, tail->cap);
    }
  }
  for (int i = 0; i < kMr; ++i) {
    for (int h = 0; h < 2; ++h) Ops::store(c + i * N + h * W, acc[i][h]);
  }
}

/// Run the Ops tile from column n while a whole tile fits; returns the first
/// column it left.
template <class Ops, class A>
IOB_GEMM_INLINE std::int64_t tile_columns(const A& a, const Strip& s, std::int64_t n) {
  for (; n + 2 * Ops::kLanes <= s.N; n += 2 * Ops::kLanes) f32_tile<Ops>(a, s, n);
  return n;
}

#if IOB_GEMM_DISPATCH
IOB_AVX std::int64_t tile_columns_avx(const RowsA& a, const Strip& s, std::int64_t n) {
  return tile_columns<AvxOps>(a, s, n);
}
#endif

/// Scalar edge for the M/N remainders: rows [0, rows) x columns [n, N) of a
/// strip, each element in the seed order.
template <class A>
void edge_tile(std::int64_t rows, std::int64_t n, const A& a, const Strip& s) {
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = n; j < s.N; ++j) {
      float acc = s.first ? (s.bias != nullptr ? s.bias[j] : 0.0f) : s.c[i * s.N + j];
      for (std::int64_t k = 0; k < s.kc; ++k) acc += a.at(i, k) * s.b[k * s.N + j];
      if (s.tail != nullptr) acc = apply_tail(s.tail->cap, acc);
      s.c[i * s.N + j] = acc;
    }
  }
}

/// The one f32 GEMM driver behind `gemm_blocked` and `gemm_blocked_pa`: K
/// blocks in order, kMr-row strips, then column tiles, widest tier first,
/// and the scalar edge for what is left. Strided A runs the AVX tile while
/// 16 columns remain; packed A stays on the base tile.
template <class A>
void gemm_f32(std::int64_t M, std::int64_t N, std::int64_t K, const A& a, const float* B,
              const float* bias, float* C, const GemmTail& tail) {
  IOB_EXPECTS(M >= 0 && N > 0 && K > 0, "gemm dims must be positive");
#if IOB_GEMM_DISPATCH
  const bool avx = std::is_same_v<A, RowsA> && cpu_has_avx();
#endif
  for (std::int64_t k0 = 0; k0 < K; k0 += kKc) {
    const std::int64_t kc = std::min(kKc, K - k0);
    const GemmTail* t = k0 + kc == K && tail.kind != GemmTail::Kind::kNone ? &tail : nullptr;
    Strip s{kc, N, B + k0 * N, C, bias, k0 == 0, t};
    std::int64_t m = 0;
    for (; m + kMr <= M; m += kMr, s.c += kMr * N) {
      const A am = a.block(m, k0);
      std::int64_t n = 0;
#if IOB_GEMM_DISPATCH
      if constexpr (std::is_same_v<A, RowsA>) {
        if (avx) n = tile_columns_avx(am, s, n);
      }
#endif
      n = tile_columns<BaseOps>(am, s, n);
      if (n < N) edge_tile(kMr, n, am, s);
    }
    if (m < M) edge_tile(M - m, 0, a.block(m, k0), s);
  }
}

}  // namespace

void pack_k_major(const float* src, std::int64_t rows, std::int64_t cols, float* dst) {
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) dst[c * rows + r] = src[r * cols + c];
  }
}

void gemm_blocked(std::int64_t M, std::int64_t N, std::int64_t K, const float* A, const float* B,
                  const float* bias, float* C, const GemmTail& tail) {
  gemm_f32(M, N, K, RowsA{A, K}, B, bias, C, tail);
}

namespace {

/// Inline float copy: the per-tap slices are tiny (ic floats, often 3-64),
/// where a libc memcpy call costs more than the copy itself.
inline void copy_floats(float* dst, const float* src, std::int64_t n) {
  if (n >= 64) {
    std::memcpy(dst, src, static_cast<std::size_t>(n) * sizeof(float));
  } else {
    for (std::int64_t i = 0; i < n; ++i) dst[i] = src[i];
  }
}

inline void zero_floats(float* dst, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] = 0.0f;
}

}  // namespace

void im2col_nhwc(int batch, int ih, int iw, int ic, int kh, int kw, int sh, int sw, int pad_top,
                 int pad_left, int oh, int ow, const float* in, float* col) {
  const std::int64_t sample_elems = static_cast<std::int64_t>(ih) * iw * ic;
  for (int s = 0; s < batch; ++s) {
    const float* ib = in + static_cast<std::int64_t>(s) * sample_elems;
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        const int x0 = ox * sw - pad_left;
        for (int ky = 0; ky < kh; ++ky) {
          const int iy = oy * sh + ky - pad_top;
          if (iy < 0 || iy >= ih) {
            zero_floats(col, static_cast<std::int64_t>(kw) * ic);
            col += static_cast<std::int64_t>(kw) * ic;
            continue;
          }
          const float* irow = ib + static_cast<std::int64_t>(iy) * iw * ic;
          if (x0 >= 0 && x0 + kw <= iw) {
            // Interior: the kw taps of this patch row are consecutive input
            // pixels — one contiguous copy.
            copy_floats(col, irow + static_cast<std::int64_t>(x0) * ic,
                        static_cast<std::int64_t>(kw) * ic);
            col += static_cast<std::int64_t>(kw) * ic;
            continue;
          }
          for (int kx = 0; kx < kw; ++kx) {
            const int ix = x0 + kx;
            if (ix < 0 || ix >= iw) {
              zero_floats(col, ic);
            } else {
              copy_floats(col, irow + static_cast<std::int64_t>(ix) * ic, ic);
            }
            col += ic;
          }
        }
      }
    }
  }
}

namespace {

/// Global packed-A toggle (default on). Read once per conv lowering, never
/// in the microkernels.
std::atomic<bool> g_pack_a_enabled{true};

/// Strided row writes into a kMr-lane panel: element j of a patch row lands
/// at dst[j * kMr]. Used only on panels that touch padding or the M
/// remainder — interior panels go through the 4x4-transpose fast path.
inline void scatter_floats(float* dst, const float* src, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i * kMr] = src[i];
}

inline void scatter_zero_floats(float* dst, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i * kMr] = 0.0f;
}

#if IOB_GEMM_SSE2
/// Pack four full patch rows at once: load 4 floats from each row, 4x4
/// transpose in registers, and store four contiguous 16-byte lanes. This
/// keeps the pack at memcpy-class throughput instead of the 16-byte-stride
/// scalar scatter, which is what makes fused im2col+pack a net win.
inline void pack_rows4_transposed(float* dst, const float* s0, const float* s1, const float* s2,
                                  const float* s3, std::int64_t n) {
  std::int64_t t = 0;
  for (; t + 4 <= n; t += 4) {
    __m128 r0 = _mm_loadu_ps(s0 + t);
    __m128 r1 = _mm_loadu_ps(s1 + t);
    __m128 r2 = _mm_loadu_ps(s2 + t);
    __m128 r3 = _mm_loadu_ps(s3 + t);
    _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
    float* d = dst + t * kMr;
    _mm_storeu_ps(d, r0);
    _mm_storeu_ps(d + 4, r1);
    _mm_storeu_ps(d + 8, r2);
    _mm_storeu_ps(d + 12, r3);
  }
  for (; t < n; ++t) {
    float* d = dst + t * kMr;
    d[0] = s0[t];
    d[1] = s1[t];
    d[2] = s2[t];
    d[3] = s3[t];
  }
}

/// Per-row staging budget (floats) for the transpose fast path: a padded
/// tap run longer than this falls back to the scalar scatter. 256 floats
/// covers kw*ic for every model-zoo conv with a 4 KiB stack footprint.
constexpr std::int64_t kPackStageRun = 256;
#endif

}  // namespace

void set_pack_a_enabled(bool enabled) {
  g_pack_a_enabled.store(enabled, std::memory_order_relaxed);
}

bool pack_a_enabled() { return g_pack_a_enabled.load(std::memory_order_relaxed); }

namespace {

/// Scalar (lane-scatter) fill of one panel row: row i's element j lands at
/// row[j * kMr]. Shared by the non-SSE2 build, short-run shapes, and the
/// final partial panel.
inline void pack_row_scatter(float* row, const float* sample, int y0, int x0, int ih, int iw,
                             int ic, int kh, int kw, std::int64_t irow_stride, std::int64_t run) {
  std::int64_t j = 0;
  for (int ky = 0; ky < kh; ++ky) {
    const int iy = y0 + ky;
    if (iy < 0 || iy >= ih) {
      scatter_zero_floats(row + j * kMr, run);
      j += run;
      continue;
    }
    const float* irow = sample + static_cast<std::int64_t>(iy) * irow_stride;
    if (x0 >= 0 && x0 + kw <= iw) {
      scatter_floats(row + j * kMr, irow + static_cast<std::int64_t>(x0) * ic, run);
      j += run;
      continue;
    }
    for (int kx = 0; kx < kw; ++kx) {
      const int ix = x0 + kx;
      if (ix < 0 || ix >= iw) {
        scatter_zero_floats(row + j * kMr, ic);
      } else {
        scatter_floats(row + j * kMr, irow + static_cast<std::int64_t>(ix) * ic, ic);
      }
      j += ic;
    }
  }
}

}  // namespace

void im2col_pack_a_nhwc(int batch, int ih, int iw, int ic, int kh, int kw, int sh, int sw,
                        int pad_top, int pad_left, int oh, int ow, const float* in, float* pack) {
  const std::int64_t sample_elems = static_cast<std::int64_t>(ih) * iw * ic;
  const std::int64_t K = static_cast<std::int64_t>(kh) * kw * ic;
  const std::int64_t run = static_cast<std::int64_t>(kw) * ic;
  const std::int64_t irow_stride = static_cast<std::int64_t>(iw) * ic;
#if IOB_GEMM_SSE2
  if (run >= 4 && run <= kPackStageRun) {
    // Panel-accumulator walk: gather four rows' geometry (all computed
    // incrementally from the (s, oy, ox) scan — no per-row divides), then
    // emit the full panel with 4x4 transposes so the pack writes stream.
    // All-interior panels take a branch-free per-ky loop; panels touching
    // padding stage each padded tap run (zeros + edge pieces) into a small
    // stack buffer first. Staged values are identical to the scalar
    // path's, so the panel bytes (and the GEMM) stay bit-exact. Panel rows
    // may straddle oy scans or samples.
    const float* samp[kMr];
    int y0v[kMr];
    int x0v[kMr];
    int np = 0;
    float* panel = pack;
    alignas(16) float staged[kMr][kPackStageRun];
    const auto emit_panel = [&]() {
      bool interior = true;
      for (int d = 0; d < kMr; ++d) {
        interior = interior && y0v[d] >= 0 && y0v[d] + kh <= ih && x0v[d] >= 0 && x0v[d] + kw <= iw;
      }
      if (interior) {
        const float* base[kMr];
        for (int d = 0; d < kMr; ++d) {
          base[d] = samp[d] + static_cast<std::int64_t>(y0v[d]) * irow_stride +
                    static_cast<std::int64_t>(x0v[d]) * ic;
        }
        for (int ky = 0; ky < kh; ++ky) {
          const std::int64_t off = static_cast<std::int64_t>(ky) * irow_stride;
          pack_rows4_transposed(panel + static_cast<std::int64_t>(ky) * run * kMr, base[0] + off,
                                base[1] + off, base[2] + off, base[3] + off, run);
        }
      } else {
        for (int ky = 0; ky < kh; ++ky) {
          const float* src[kMr];
          for (int d = 0; d < kMr; ++d) {
            const int iy = y0v[d] + ky;
            if (iy < 0 || iy >= ih) {
              zero_floats(staged[d], run);
              src[d] = staged[d];
              continue;
            }
            const float* irow = samp[d] + static_cast<std::int64_t>(iy) * irow_stride;
            const int x0 = x0v[d];
            if (x0 >= 0 && x0 + kw <= iw) {
              src[d] = irow + static_cast<std::int64_t>(x0) * ic;
              continue;
            }
            float* st = staged[d];
            std::int64_t j = 0;
            for (int kx = 0; kx < kw; ++kx) {
              const int ix = x0 + kx;
              if (ix < 0 || ix >= iw) {
                zero_floats(st + j, ic);
              } else {
                copy_floats(st + j, irow + static_cast<std::int64_t>(ix) * ic, ic);
              }
              j += ic;
            }
            src[d] = st;
          }
          pack_rows4_transposed(panel + static_cast<std::int64_t>(ky) * run * kMr, src[0], src[1],
                                src[2], src[3], run);
        }
      }
      panel += kMr * K;
      np = 0;
    };
    for (int s = 0; s < batch; ++s) {
      const float* ib = in + static_cast<std::int64_t>(s) * sample_elems;
      for (int oy = 0; oy < oh; ++oy) {
        const int y0 = oy * sh - pad_top;
        for (int ox = 0; ox < ow; ++ox) {
          samp[np] = ib;
          y0v[np] = y0;
          x0v[np] = ox * sw - pad_left;
          if (++np == kMr) emit_panel();
        }
      }
    }
    for (int d = 0; d < np; ++d) {
      pack_row_scatter(panel + d, samp[d], y0v[d], x0v[d], ih, iw, ic, kh, kw, irow_stride, run);
    }
    return;
  }
#endif
  std::int64_t r = 0;
  for (int s = 0; s < batch; ++s) {
    const float* ib = in + static_cast<std::int64_t>(s) * sample_elems;
    for (int oy = 0; oy < oh; ++oy) {
      const int y0 = oy * sh - pad_top;
      for (int ox = 0; ox < ow; ++ox) {
        pack_row_scatter(pack + (r / kMr) * (kMr * K) + (r % kMr), ib, y0, ox * sw - pad_left, ih,
                         iw, ic, kh, kw, irow_stride, run);
        ++r;
      }
    }
  }
}

void gemm_blocked_pa(std::int64_t M, std::int64_t N, std::int64_t K, const float* Ap,
                     const float* B, const float* bias, float* C, const GemmTail& tail) {
  gemm_f32(M, N, K, PanelA{Ap, K}, B, bias, C, tail);
}

void dwconv2d_nhwc(int batch, int ih, int iw, int c, int k, int stride, int pad_top, int pad_left,
                   int oh, int ow, const float* in, const float* wpacked, const float* bias,
                   float* out) {
  const std::int64_t in_sample = static_cast<std::int64_t>(ih) * iw * c;
  const std::int64_t out_sample = static_cast<std::int64_t>(oh) * ow * c;
  for (int s = 0; s < batch; ++s) {
    const float* ib = in + static_cast<std::int64_t>(s) * in_sample;
    float* ob = out + static_cast<std::int64_t>(s) * out_sample;
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        float* o = ob + (static_cast<std::int64_t>(oy) * ow + ox) * c;
        for (int ch = 0; ch < c; ++ch) o[ch] = bias[ch];
        for (int ky = 0; ky < k; ++ky) {
          const int iy = oy * stride + ky - pad_top;
          if (iy < 0 || iy >= ih) continue;
          for (int kx = 0; kx < k; ++kx) {
            const int ix = ox * stride + kx - pad_left;
            if (ix < 0 || ix >= iw) continue;
            const float* w = wpacked + (static_cast<std::int64_t>(ky) * k + kx) * c;
            const float* p = ib + (static_cast<std::int64_t>(iy) * iw + ix) * c;
            for (int ch = 0; ch < c; ++ch) o[ch] += w[ch] * p[ch];
          }
        }
      }
    }
  }
}

// ---- int8 execution path ----------------------------------------------------

void pack_b_s8(const std::int8_t* b, std::int64_t K, std::int64_t N, const std::int32_t* zw,
               std::int16_t* dst) {
  const std::int64_t kp_count = (K + 1) / 2;
  for (std::int64_t kp = 0; kp < kp_count; ++kp) {
    for (std::int64_t n = 0; n < N; ++n) {
      const std::int64_t k0 = 2 * kp;
      dst[(kp * N + n) * 2 + 0] = static_cast<std::int16_t>(b[k0 * N + n] - zw[n]);
      dst[(kp * N + n) * 2 + 1] =
          k0 + 1 < K ? static_cast<std::int16_t>(b[(k0 + 1) * N + n] - zw[n])
                     : static_cast<std::int16_t>(0);
    }
  }
}

namespace {

/// K-pair cache block of the int8 GEMM (256 k terms, mirroring the f32
/// kKc). An A tile packs kMr x kKcPairs pair-merged int32s on the stack.
constexpr std::int64_t kKcPairs = 128;

/// Shared scalar epilogue core: affine accumulator -> real value, optional
/// fused relu. Every quantized epilogue (standalone, GEMM-fused, depthwise)
/// runs these exact expressions, scalar or lane-for-lane in SSE2.
inline float epilogue_real(std::int32_t acc, const float* bias, std::int64_t n, float scale,
                           float relu_cap) {
  float v = (bias != nullptr ? bias[n] : 0.0f) + scale * static_cast<float>(acc);
  if (relu_cap >= 0.0f) {
    v = std::max(0.0f, v);
    if (relu_cap > 0.0f) v = std::min(relu_cap, v);
  }
  return v;
}

/// Per-tile view of a QuantEpilogue: bias/dst/dstf pre-offset to the tile
/// origin (dst rows keep the full C row stride N).
struct EpiCtx {
  const float* bias = nullptr;
  const float* col_scales = nullptr;
  std::int8_t* dst = nullptr;
  float* dstf = nullptr;
  float scale = 1.0f, relu_cap = -1.0f, inv = 1.0f;
  std::int32_t zp = 0;
};

inline EpiCtx epi_tile(const QuantEpilogue& e, std::int64_t m, std::int64_t n, std::int64_t N) {
  return EpiCtx{e.bias != nullptr ? e.bias + n : nullptr,
                e.col_scales != nullptr ? e.col_scales + n : nullptr,
                e.dst != nullptr ? e.dst + m * N + n : nullptr,
                e.dstf != nullptr ? e.dstf + m * N + n : nullptr,
                e.scale, e.relu_cap, e.inv_out_scale, e.out_zero};
}

inline void epilogue_scalar(const EpiCtx& e, std::int32_t acc, std::int64_t j, std::int64_t di) {
  const float sc = e.col_scales != nullptr ? e.col_scales[j] : e.scale;
  const float v = epilogue_real(acc, e.bias, j, sc, e.relu_cap);
  if (e.dstf != nullptr) {
    e.dstf[di] = v;
  } else {
    e.dst[di] = requantize_value(v, e.inv, e.zp);
  }
}

/// Pack one kMr-row A tile for K pairs [kp0, kp0 + kpc): zero-point-
/// subtracted int16 (k, k+1) pairs merged into one int32 per pair (odd-K
/// tails pad the high half with 0, contributing nothing). On little-endian
/// x86 the merged-int32 view IS the consecutive int16 stream, so the SSE2
/// fill is a straight sign-extend / subtract / store sweep — 8 elements
/// per step instead of the scalar 2 (this pack is the dominant overhead at
/// small K, where the kp loop is short).
void pack_a_tile_s8(const std::int8_t* a, std::int64_t K, std::int64_t kp0, std::int64_t kpc,
                    std::int32_t za, std::int64_t rows, std::int32_t* apk) {
  const std::int64_t k0 = kp0 * 2;
  const std::int64_t kelems = std::min(2 * kpc, K - k0);
  for (std::int64_t i = 0; i < rows; ++i) {
    const std::int8_t* arow = a + i * K + k0;
    auto* dst = reinterpret_cast<std::int16_t*>(apk + i * kpc);
    std::int64_t e = 0;
#if IOB_GEMM_SSE2
    const __m128i vza = _mm_set1_epi16(static_cast<std::int16_t>(za));
    const __m128i vz = _mm_setzero_si128();
    for (; e + 8 <= kelems; e += 8) {
      const __m128i a8 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(arow + e));
      const __m128i a16 = _mm_sub_epi16(_mm_unpacklo_epi8(a8, _mm_cmpgt_epi8(vz, a8)), vza);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + e), a16);
    }
#endif
    for (; e < kelems; ++e) dst[e] = static_cast<std::int16_t>(arow[e] - za);
    for (std::int64_t p = kelems; p < 2 * kpc; ++p) dst[p] = 0;
  }
}

/// Scalar int8 tile path (M/N remainders and the portable build): exact
/// int32 arithmetic over the same operands, so its results are bit-identical
/// to the SSE2 microkernel by construction. A non-null `epi` (final K
/// block) writes the epilogue result instead of the raw accumulator.
void edge_tile_s8(std::int64_t rows, std::int64_t cols, std::int64_t kpc, const std::int8_t* a,
                  std::int64_t K, std::int64_t kp0, std::int32_t za, const std::int16_t* b,
                  std::int64_t N, std::int32_t* c, bool first, const EpiCtx* epi) {
  for (std::int64_t i = 0; i < rows; ++i) {
    const std::int8_t* arow = a + i * K;
    for (std::int64_t j = 0; j < cols; ++j) {
      std::int32_t acc = first ? 0 : c[i * N + j];
      for (std::int64_t kp = 0; kp < kpc; ++kp) {
        const std::int64_t k = (kp0 + kp) * 2;
        const std::int32_t a0 = arow[k] - za;
        const std::int32_t a1 = k + 1 < K ? arow[k + 1] - za : 0;
        const std::int16_t* bp = b + (kp * N + j) * 2;
        acc += a0 * bp[0] + a1 * bp[1];
      }
      if (epi != nullptr) {
        epilogue_scalar(*epi, acc, j, i * N + j);
      } else {
        c[i * N + j] = acc;
      }
    }
  }
}

/// Scalar edge path over pre-packed A panels: row i's K pairs live at
/// apk[i * apk_stride + kp], two already-zero-point-subtracted int16 per
/// int32 (little-endian: low half = even k). Identical integer arithmetic
/// to `edge_tile_s8`, so results are bit-identical.
void edge_tile_s8_pa(std::int64_t rows, std::int64_t cols, std::int64_t kpc,
                     const std::int32_t* apk, std::int64_t apk_stride, const std::int16_t* b,
                     std::int64_t N, std::int32_t* c, bool first, const EpiCtx* epi) {
  for (std::int64_t i = 0; i < rows; ++i) {
    const auto* arow = reinterpret_cast<const std::int16_t*>(apk + i * apk_stride);
    for (std::int64_t j = 0; j < cols; ++j) {
      std::int32_t acc = first ? 0 : c[i * N + j];
      for (std::int64_t kp = 0; kp < kpc; ++kp) {
        const std::int16_t* bp = b + (kp * N + j) * 2;
        acc += static_cast<std::int32_t>(arow[2 * kp]) * bp[0] +
               static_cast<std::int32_t>(arow[2 * kp + 1]) * bp[1];
      }
      if (epi != nullptr) {
        epilogue_scalar(*epi, acc, j, i * N + j);
      } else {
        c[i * N + j] = acc;
      }
    }
  }
}

#if IOB_GEMM_SSE2
/// Vector epilogue over one 2x4-lane row (8 int32 accumulators): the exact
/// lane-wise counterpart of `epilogue_scalar` — cvtepi32_ps / mul / add are
/// the same IEEE ops, the round is trunc(v + copysign(0.5, v)) in both, and
/// packs saturation equals the scalar int8 clamp.
inline void epi_store_row(const EpiCtx& e, __m128i a0, __m128i a1, std::int64_t row,
                          std::int64_t N) {
  const __m128 s0 = e.col_scales != nullptr ? _mm_loadu_ps(e.col_scales) : _mm_set1_ps(e.scale);
  const __m128 s1 =
      e.col_scales != nullptr ? _mm_loadu_ps(e.col_scales + 4) : _mm_set1_ps(e.scale);
  __m128 r0 = _mm_mul_ps(s0, _mm_cvtepi32_ps(a0));
  __m128 r1 = _mm_mul_ps(s1, _mm_cvtepi32_ps(a1));
  if (e.bias != nullptr) {
    r0 = _mm_add_ps(_mm_loadu_ps(e.bias), r0);
    r1 = _mm_add_ps(_mm_loadu_ps(e.bias + 4), r1);
  }
  if (e.relu_cap >= 0.0f) {
    const __m128 zero = _mm_setzero_ps();
    r0 = _mm_max_ps(zero, r0);
    r1 = _mm_max_ps(zero, r1);
    if (e.relu_cap > 0.0f) {
      const __m128 cap = _mm_set1_ps(e.relu_cap);
      r0 = _mm_min_ps(cap, r0);
      r1 = _mm_min_ps(cap, r1);
    }
  }
  if (e.dstf != nullptr) {
    _mm_storeu_ps(e.dstf + row * N, r0);
    _mm_storeu_ps(e.dstf + row * N + 4, r1);
    return;
  }
  const __m128 vinv = _mm_set1_ps(e.inv);
  const __m128 vhalf = _mm_set1_ps(0.5f);
  const __m128 vsign = _mm_set1_ps(-0.0f);
  r0 = _mm_mul_ps(r0, vinv);
  r1 = _mm_mul_ps(r1, vinv);
  const __m128 h0 = _mm_or_ps(_mm_and_ps(r0, vsign), vhalf);
  const __m128 h1 = _mm_or_ps(_mm_and_ps(r1, vsign), vhalf);
  const __m128i vzp = _mm_set1_epi32(e.zp);
  const __m128i q0 = _mm_add_epi32(_mm_cvttps_epi32(_mm_add_ps(r0, h0)), vzp);
  const __m128i q1 = _mm_add_epi32(_mm_cvttps_epi32(_mm_add_ps(r1, h1)), vzp);
  const __m128i p16 = _mm_packs_epi32(q0, q1);
  const __m128i p8 = _mm_packs_epi16(p16, p16);
  _mm_storel_epi64(reinterpret_cast<__m128i*>(e.dst + row * N), p8);
}

/// kMr x kNr int8 microkernel: eight int32 accumulators, one pmaddwd per
/// (row, 4-column, k-pair) step — each instruction retires 8 MACs, twice
/// the f32 kernel's per-instruction density (the int8 throughput win the
/// requantized path banks). The fused epilogue requantizes the tile
/// straight out of registers on the final K block.
void micro_tile_s8(std::int64_t kpc, const std::int32_t* apk, std::int64_t apk_stride,
                   const std::int16_t* b, std::int64_t N, std::int32_t* c, bool first,
                   const EpiCtx* epi) {
  static_assert(kMr == 4 && kNr == 8, "micro_tile_s8 is written for a 4x8 register tile");
  __m128i acc[kMr][2];
  for (int i = 0; i < kMr; ++i) {
    if (first) {
      acc[i][0] = _mm_setzero_si128();
      acc[i][1] = _mm_setzero_si128();
    } else {
      acc[i][0] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(c + i * N));
      acc[i][1] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(c + i * N + 4));
    }
  }
  for (std::int64_t kp = 0; kp < kpc; ++kp) {
    const std::int16_t* brow = b + kp * 2 * N;
    const __m128i b0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(brow));
    const __m128i b1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(brow + 8));
    for (int i = 0; i < kMr; ++i) {
      const __m128i ai = _mm_set1_epi32(apk[i * apk_stride + kp]);
      acc[i][0] = _mm_add_epi32(acc[i][0], _mm_madd_epi16(ai, b0));
      acc[i][1] = _mm_add_epi32(acc[i][1], _mm_madd_epi16(ai, b1));
    }
  }
  if (epi != nullptr) {
    for (int i = 0; i < kMr; ++i) epi_store_row(*epi, acc[i][0], acc[i][1], i, N);
    return;
  }
  for (int i = 0; i < kMr; ++i) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(c + i * N), acc[i][0]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(c + i * N + 4), acc[i][1]);
  }
}
#endif

#if IOB_GEMM_DISPATCH

/// AVX2 column width of the int8 microkernel (two ymm accumulators/row).
constexpr std::int64_t kNr2 = 16;

/// 256-bit epilogue over one row of 16 accumulated columns: the exact
/// lane-wise counterpart of `epilogue_scalar` (same IEEE ops; the double
/// packs + permute saturate exactly like the scalar int8 clamp).
__attribute__((target("avx2"))) inline void epi_store_row2(const EpiCtx& e, __m256i a0,
                                                           __m256i a1, std::int64_t row,
                                                           std::int64_t N) {
  const __m256 s0 =
      e.col_scales != nullptr ? _mm256_loadu_ps(e.col_scales) : _mm256_set1_ps(e.scale);
  const __m256 s1 =
      e.col_scales != nullptr ? _mm256_loadu_ps(e.col_scales + 8) : _mm256_set1_ps(e.scale);
  __m256 r0 = _mm256_mul_ps(s0, _mm256_cvtepi32_ps(a0));
  __m256 r1 = _mm256_mul_ps(s1, _mm256_cvtepi32_ps(a1));
  if (e.bias != nullptr) {
    r0 = _mm256_add_ps(_mm256_loadu_ps(e.bias), r0);
    r1 = _mm256_add_ps(_mm256_loadu_ps(e.bias + 8), r1);
  }
  if (e.relu_cap >= 0.0f) {
    const __m256 zero = _mm256_setzero_ps();
    r0 = _mm256_max_ps(zero, r0);
    r1 = _mm256_max_ps(zero, r1);
    if (e.relu_cap > 0.0f) {
      const __m256 cap = _mm256_set1_ps(e.relu_cap);
      r0 = _mm256_min_ps(cap, r0);
      r1 = _mm256_min_ps(cap, r1);
    }
  }
  if (e.dstf != nullptr) {
    _mm256_storeu_ps(e.dstf + row * N, r0);
    _mm256_storeu_ps(e.dstf + row * N + 8, r1);
    return;
  }
  const __m256 vinv = _mm256_set1_ps(e.inv);
  const __m256 vhalf = _mm256_set1_ps(0.5f);
  const __m256 vsign = _mm256_set1_ps(-0.0f);
  r0 = _mm256_mul_ps(r0, vinv);
  r1 = _mm256_mul_ps(r1, vinv);
  const __m256 h0 = _mm256_or_ps(_mm256_and_ps(r0, vsign), vhalf);
  const __m256 h1 = _mm256_or_ps(_mm256_and_ps(r1, vsign), vhalf);
  const __m256i vzp = _mm256_set1_epi32(e.zp);
  const __m256i q0 = _mm256_add_epi32(_mm256_cvttps_epi32(_mm256_add_ps(r0, h0)), vzp);
  const __m256i q1 = _mm256_add_epi32(_mm256_cvttps_epi32(_mm256_add_ps(r1, h1)), vzp);
  // packs interleave within 128-bit lanes; permute restores column order.
  const __m256i p16 = _mm256_permute4x64_epi64(_mm256_packs_epi32(q0, q1), 0xD8);
  const __m256i p8 =
      _mm256_permute4x64_epi64(_mm256_packs_epi16(p16, _mm256_setzero_si256()), 0x08);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(e.dst + row * N),
                   _mm256_castsi256_si128(p8));
}

/// kMr x kNr2 AVX2 int8 microkernel: one vpmaddwd retires 16 MACs — four
/// times the f32 kernel's per-instruction density. Same operands and exact
/// integer arithmetic as the SSE2/scalar paths, so results are
/// bit-identical; dispatch is purely a throughput choice.
__attribute__((target("avx2"))) void micro_tile_s8_avx2(std::int64_t kpc,
                                                        const std::int32_t* apk,
                                                        std::int64_t apk_stride,
                                                        const std::int16_t* b, std::int64_t N,
                                                        std::int32_t* c, bool first,
                                                        const EpiCtx* epi) {
  static_assert(kMr == 4, "micro_tile_s8_avx2 is written for 4 rows");
  __m256i acc[kMr][2];
  for (int i = 0; i < kMr; ++i) {
    if (first) {
      acc[i][0] = _mm256_setzero_si256();
      acc[i][1] = _mm256_setzero_si256();
    } else {
      acc[i][0] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + i * N));
      acc[i][1] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + i * N + 8));
    }
  }
  for (std::int64_t kp = 0; kp < kpc; ++kp) {
    const std::int16_t* brow = b + kp * 2 * N;
    const __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(brow));
    const __m256i b1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(brow + 16));
    for (int i = 0; i < kMr; ++i) {
      const __m256i ai = _mm256_set1_epi32(apk[i * apk_stride + kp]);
      acc[i][0] = _mm256_add_epi32(acc[i][0], _mm256_madd_epi16(ai, b0));
      acc[i][1] = _mm256_add_epi32(acc[i][1], _mm256_madd_epi16(ai, b1));
    }
  }
  if (epi != nullptr) {
    for (int i = 0; i < kMr; ++i) epi_store_row2(*epi, acc[i][0], acc[i][1], i, N);
    return;
  }
  for (int i = 0; i < kMr; ++i) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + i * N), acc[i][0]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + i * N + 8), acc[i][1]);
  }
}

/// Full AVX2 depthwise kernel (one target function so every helper inlines
/// under VEX encoding): 16 channels per step — sign-extend, subtract the
/// zero point, widening-multiply against the pre-widened weights. The
/// accumulators keep the unpack-interleaved lane order across taps; one
/// permute pair restores channel order before the 16-wide epilogue. The
/// sub-16 channel remainder runs the scalar expressions, which are
/// bit-identical to the vector lanes.
__attribute__((target("avx2"))) void dwconv2d_s8_avx2(int batch, int ih, int iw, int c, int k,
                                                      int stride, int pad_top, int pad_left,
                                                      int oh, int ow, const std::int8_t* in,
                                                      std::int32_t za, const std::int16_t* w16,
                                                      const EpiCtx& epi) {
  const std::int64_t in_sample = static_cast<std::int64_t>(ih) * iw * c;
  const std::int64_t out_sample = static_cast<std::int64_t>(oh) * ow * c;
  const __m256i vza = _mm256_set1_epi16(static_cast<std::int16_t>(za));
  for (int s = 0; s < batch; ++s) {
    const std::int8_t* ib = in + static_cast<std::int64_t>(s) * in_sample;
    const std::int64_t obase = static_cast<std::int64_t>(s) * out_sample;
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        const std::int64_t o = obase + (static_cast<std::int64_t>(oy) * ow + ox) * c;
        int ch = 0;
        for (; ch + 16 <= c; ch += 16) {
          __m256i acc0 = _mm256_setzero_si256();
          __m256i acc1 = _mm256_setzero_si256();
          for (int ky = 0; ky < k; ++ky) {
            const int iy = oy * stride + ky - pad_top;
            if (iy < 0 || iy >= ih) continue;
            for (int kx = 0; kx < k; ++kx) {
              const int ix = ox * stride + kx - pad_left;
              if (ix < 0 || ix >= iw) continue;
              const std::int8_t* p = ib + (static_cast<std::int64_t>(iy) * iw + ix) * c + ch;
              const __m256i a16 = _mm256_sub_epi16(
                  _mm256_cvtepi8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))),
                  vza);
              const __m256i wv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                  w16 + (static_cast<std::int64_t>(ky) * k + kx) * c + ch));
              const __m256i lo = _mm256_mullo_epi16(a16, wv);
              const __m256i hi = _mm256_mulhi_epi16(a16, wv);
              acc0 = _mm256_add_epi32(acc0, _mm256_unpacklo_epi16(lo, hi));
              acc1 = _mm256_add_epi32(acc1, _mm256_unpackhi_epi16(lo, hi));
            }
          }
          // acc0 = channels [0-3 | 8-11], acc1 = [4-7 | 12-15]: un-interleave.
          const __m256i lo8 = _mm256_permute2x128_si256(acc0, acc1, 0x20);  // ch 0-7
          const __m256i hi8 = _mm256_permute2x128_si256(acc0, acc1, 0x31);  // ch 8-15
          const EpiCtx lane{epi.bias != nullptr ? epi.bias + ch : nullptr,
                            epi.col_scales != nullptr ? epi.col_scales + ch : nullptr,
                            epi.dst != nullptr ? epi.dst + o + ch : nullptr,
                            epi.dstf != nullptr ? epi.dstf + o + ch : nullptr,
                            epi.scale, epi.relu_cap, epi.inv, epi.zp};
          epi_store_row2(lane, lo8, hi8, 0, 0);
        }
        for (; ch < c; ++ch) {
          std::int32_t acc = 0;
          for (int ky = 0; ky < k; ++ky) {
            const int iy = oy * stride + ky - pad_top;
            if (iy < 0 || iy >= ih) continue;
            for (int kx = 0; kx < k; ++kx) {
              const int ix = ox * stride + kx - pad_left;
              if (ix < 0 || ix >= iw) continue;
              const std::int32_t w = w16[(static_cast<std::int64_t>(ky) * k + kx) * c + ch];
              const std::int32_t a = ib[(static_cast<std::int64_t>(iy) * iw + ix) * c + ch] - za;
              acc += a * w;
            }
          }
          epilogue_scalar(epi, acc, ch, o + ch);
        }
      }
    }
  }
}

// GCC 12's avx512 extract intrinsics trip -Wmaybe-uninitialized on the
// unused merge operand of the maskless form; the value is never read.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

/// AVX-512 column width of the int8 microkernel (two zmm accumulators/row).
constexpr std::int64_t kNr3 = 32;

/// kMr x kNr3 AVX-512BW int8 microkernel: one vpmaddwd retires 32 MACs.
/// Same operands, same exact integer arithmetic — a pure throughput tier
/// above the AVX2 kernel for layers with >= 32 output channels. The
/// epilogue drops to the 256-bit path per ymm half (identical lane ops).
__attribute__((target("avx2,avx512f,avx512bw"))) void micro_tile_s8_avx512(
    std::int64_t kpc, const std::int32_t* apk, std::int64_t apk_stride, const std::int16_t* b,
    std::int64_t N, std::int32_t* c, bool first, const EpiCtx* epi) {
  static_assert(kMr == 4, "micro_tile_s8_avx512 is written for 4 rows");
  __m512i acc[kMr][2];
  for (int i = 0; i < kMr; ++i) {
    if (first) {
      acc[i][0] = _mm512_setzero_si512();
      acc[i][1] = _mm512_setzero_si512();
    } else {
      acc[i][0] = _mm512_loadu_si512(c + i * N);
      acc[i][1] = _mm512_loadu_si512(c + i * N + 16);
    }
  }
  for (std::int64_t kp = 0; kp < kpc; ++kp) {
    const std::int16_t* brow = b + kp * 2 * N;
    const __m512i b0 = _mm512_loadu_si512(brow);
    const __m512i b1 = _mm512_loadu_si512(brow + 32);
    for (int i = 0; i < kMr; ++i) {
      const __m512i ai = _mm512_set1_epi32(apk[i * apk_stride + kp]);
      acc[i][0] = _mm512_add_epi32(acc[i][0], _mm512_madd_epi16(ai, b0));
      acc[i][1] = _mm512_add_epi32(acc[i][1], _mm512_madd_epi16(ai, b1));
    }
  }
  if (epi != nullptr) {
    for (int i = 0; i < kMr; ++i) {
      for (int half = 0; half < 2; ++half) {
        const EpiCtx lane{epi->bias != nullptr ? epi->bias + half * 16 : nullptr,
                          epi->col_scales != nullptr ? epi->col_scales + half * 16 : nullptr,
                          epi->dst != nullptr ? epi->dst + i * N + half * 16 : nullptr,
                          epi->dstf != nullptr ? epi->dstf + i * N + half * 16 : nullptr,
                          epi->scale, epi->relu_cap, epi->inv, epi->zp};
        epi_store_row2(lane, _mm512_castsi512_si256(acc[i][half]),
                       _mm512_extracti64x4_epi64(acc[i][half], 1), 0, 0);
      }
    }
    return;
  }
  for (int i = 0; i < kMr; ++i) {
    _mm512_storeu_si512(c + i * N, acc[i][0]);
    _mm512_storeu_si512(c + i * N + 16, acc[i][1]);
  }
}

/// 16-column zmm variant for the N remainder (and narrow layers like a
/// 16-channel stem): one vpmaddwd covers the whole column tile, so narrow
/// GEMMs keep the 512-bit MAC density instead of dropping to AVX2.
__attribute__((target("avx2,avx512f,avx512bw"))) void micro_tile_s8_avx512_n16(
    std::int64_t kpc, const std::int32_t* apk, std::int64_t apk_stride, const std::int16_t* b,
    std::int64_t N, std::int32_t* c, bool first, const EpiCtx* epi) {
  static_assert(kMr == 4, "micro_tile_s8_avx512_n16 is written for 4 rows");
  __m512i acc[kMr];
  for (int i = 0; i < kMr; ++i) {
    acc[i] = first ? _mm512_setzero_si512() : _mm512_loadu_si512(c + i * N);
  }
  for (std::int64_t kp = 0; kp < kpc; ++kp) {
    const __m512i b0 = _mm512_loadu_si512(b + kp * 2 * N);
    for (int i = 0; i < kMr; ++i) {
      const __m512i ai = _mm512_set1_epi32(apk[i * apk_stride + kp]);
      acc[i] = _mm512_add_epi32(acc[i], _mm512_madd_epi16(ai, b0));
    }
  }
  if (epi != nullptr) {
    for (int i = 0; i < kMr; ++i) {
      const EpiCtx lane{epi->bias, epi->col_scales,
                        epi->dst != nullptr ? epi->dst + i * N : nullptr,
                        epi->dstf != nullptr ? epi->dstf + i * N : nullptr,
                        epi->scale, epi->relu_cap, epi->inv, epi->zp};
      epi_store_row2(lane, _mm512_castsi512_si256(acc[i]),
                     _mm512_extracti64x4_epi64(acc[i], 1), 0, 0);
    }
    return;
  }
  for (int i = 0; i < kMr; ++i) _mm512_storeu_si512(c + i * N, acc[i]);
}

/// AVX-512 depthwise kernel: 32 channels per step with hoisted (branch-
/// free) valid-tap ranges; products keep the 128-bit-sublane interleave
/// across taps and two permutex2var shuffles restore channel order before
/// the 16-wide epilogues. 16-channel and scalar remainders keep the same
/// exact arithmetic.
__attribute__((target("avx2,avx512f,avx512bw"))) void dwconv2d_s8_avx512(
    int batch, int ih, int iw, int c, int k, int stride, int pad_top, int pad_left, int oh,
    int ow, const std::int8_t* in, std::int32_t za, const std::int16_t* w16, const EpiCtx& epi) {
  const std::int64_t in_sample = static_cast<std::int64_t>(ih) * iw * c;
  const std::int64_t out_sample = static_cast<std::int64_t>(oh) * ow * c;
  const __m512i vza512 = _mm512_set1_epi16(static_cast<std::int16_t>(za));
  const __m256i vza256 = _mm256_set1_epi16(static_cast<std::int16_t>(za));
  // Un-interleave indices: lo = channels 0-15, hi = channels 16-31.
  const __m512i idx_lo = _mm512_set_epi32(23, 22, 21, 20, 7, 6, 5, 4, 19, 18, 17, 16, 3, 2, 1, 0);
  const __m512i idx_hi =
      _mm512_set_epi32(31, 30, 29, 28, 15, 14, 13, 12, 27, 26, 25, 24, 11, 10, 9, 8);
  for (int s = 0; s < batch; ++s) {
    const std::int8_t* ib = in + static_cast<std::int64_t>(s) * in_sample;
    const std::int64_t obase = static_cast<std::int64_t>(s) * out_sample;
    for (int oy = 0; oy < oh; ++oy) {
      const int ky0 = std::max(0, pad_top - oy * stride);
      const int ky1 = std::min(k, ih + pad_top - oy * stride);
      for (int ox = 0; ox < ow; ++ox) {
        const int kx0 = std::max(0, pad_left - ox * stride);
        const int kx1 = std::min(k, iw + pad_left - ox * stride);
        const std::int64_t o = obase + (static_cast<std::int64_t>(oy) * ow + ox) * c;
        int ch = 0;
        for (; ch + 32 <= c; ch += 32) {
          __m512i acc0 = _mm512_setzero_si512();
          __m512i acc1 = _mm512_setzero_si512();
          for (int ky = ky0; ky < ky1; ++ky) {
            const int iy = oy * stride + ky - pad_top;
            for (int kx = kx0; kx < kx1; ++kx) {
              const int ix = ox * stride + kx - pad_left;
              const std::int8_t* p = ib + (static_cast<std::int64_t>(iy) * iw + ix) * c + ch;
              const __m512i a16 = _mm512_sub_epi16(
                  _mm512_cvtepi8_epi16(
                      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))),
                  vza512);
              const __m512i wv = _mm512_loadu_si512(
                  w16 + (static_cast<std::int64_t>(ky) * k + kx) * c + ch);
              const __m512i lo = _mm512_mullo_epi16(a16, wv);
              const __m512i hi = _mm512_mulhi_epi16(a16, wv);
              acc0 = _mm512_add_epi32(acc0, _mm512_unpacklo_epi16(lo, hi));
              acc1 = _mm512_add_epi32(acc1, _mm512_unpackhi_epi16(lo, hi));
            }
          }
          const __m512i l16 = _mm512_permutex2var_epi32(acc0, idx_lo, acc1);
          const __m512i h16 = _mm512_permutex2var_epi32(acc0, idx_hi, acc1);
          for (int half = 0; half < 2; ++half) {
            const __m512i v = half == 0 ? l16 : h16;
            const std::int64_t off = o + ch + half * 16;
            const EpiCtx lane{epi.bias != nullptr ? epi.bias + ch + half * 16 : nullptr,
                              epi.col_scales != nullptr ? epi.col_scales + ch + half * 16
                                                        : nullptr,
                              epi.dst != nullptr ? epi.dst + off : nullptr,
                              epi.dstf != nullptr ? epi.dstf + off : nullptr,
                              epi.scale, epi.relu_cap, epi.inv, epi.zp};
            epi_store_row2(lane, _mm512_castsi512_si256(v), _mm512_extracti64x4_epi64(v, 1), 0,
                           0);
          }
        }
        for (; ch + 16 <= c; ch += 16) {
          __m256i acc0 = _mm256_setzero_si256();
          __m256i acc1 = _mm256_setzero_si256();
          for (int ky = ky0; ky < ky1; ++ky) {
            const int iy = oy * stride + ky - pad_top;
            for (int kx = kx0; kx < kx1; ++kx) {
              const int ix = ox * stride + kx - pad_left;
              const std::int8_t* p = ib + (static_cast<std::int64_t>(iy) * iw + ix) * c + ch;
              const __m256i a16 = _mm256_sub_epi16(
                  _mm256_cvtepi8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))),
                  vza256);
              const __m256i wv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                  w16 + (static_cast<std::int64_t>(ky) * k + kx) * c + ch));
              const __m256i lo = _mm256_mullo_epi16(a16, wv);
              const __m256i hi = _mm256_mulhi_epi16(a16, wv);
              acc0 = _mm256_add_epi32(acc0, _mm256_unpacklo_epi16(lo, hi));
              acc1 = _mm256_add_epi32(acc1, _mm256_unpackhi_epi16(lo, hi));
            }
          }
          const __m256i lo8 = _mm256_permute2x128_si256(acc0, acc1, 0x20);
          const __m256i hi8 = _mm256_permute2x128_si256(acc0, acc1, 0x31);
          const EpiCtx lane{epi.bias != nullptr ? epi.bias + ch : nullptr,
                            epi.col_scales != nullptr ? epi.col_scales + ch : nullptr,
                            epi.dst != nullptr ? epi.dst + o + ch : nullptr,
                            epi.dstf != nullptr ? epi.dstf + o + ch : nullptr,
                            epi.scale, epi.relu_cap, epi.inv, epi.zp};
          epi_store_row2(lane, lo8, hi8, 0, 0);
        }
        for (; ch < c; ++ch) {
          std::int32_t acc = 0;
          for (int ky = ky0; ky < ky1; ++ky) {
            const int iy = oy * stride + ky - pad_top;
            for (int kx = kx0; kx < kx1; ++kx) {
              const int ix = ox * stride + kx - pad_left;
              const std::int32_t w = w16[(static_cast<std::int64_t>(ky) * k + kx) * c + ch];
              const std::int32_t a = ib[(static_cast<std::int64_t>(iy) * iw + ix) * c + ch] - za;
              acc += a * w;
            }
          }
          epilogue_scalar(epi, acc, ch, o + ch);
        }
      }
    }
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // IOB_GEMM_DISPATCH

}  // namespace

void set_dispatch_cap(int cap) {
  g_dispatch_cap.store(cap < 0 ? std::numeric_limits<int>::max() : cap,
                       std::memory_order_relaxed);
}

void gemm_s8(std::int64_t M, std::int64_t N, std::int64_t K, const std::int8_t* A,
             std::int32_t za, const std::int16_t* bop, std::int32_t* C,
             const QuantEpilogue* epi) {
  IOB_EXPECTS(M >= 0 && N > 0 && K > 0, "gemm dims must be positive");
  // |a - za| and |w - zw| are <= 255, so a K-term dot product is bounded by
  // K * 255^2; K < 2^15 keeps it inside int32 with margin.
  IOB_EXPECTS(K < (std::int64_t{1} << 15), "int8 gemm K out of exact int32 range");
  IOB_EXPECTS(epi == nullptr || ((epi->dst != nullptr) != (epi->dstf != nullptr)),
              "quant epilogue needs exactly one target");
  const std::int64_t kp_count = (K + 1) / 2;
  for (std::int64_t kp0 = 0; kp0 < kp_count; kp0 += kKcPairs) {
    const std::int64_t kpc = std::min(kKcPairs, kp_count - kp0);
    const bool first = kp0 == 0;
    const bool last = kp0 + kpc == kp_count;
    const std::int16_t* bk = bop + kp0 * 2 * N;
    std::int64_t m = 0;
#if IOB_GEMM_SSE2
    std::int32_t apk[kMr * kKcPairs];
#if IOB_GEMM_DISPATCH
    const bool avx2 = cpu_has_avx2();
    const bool avx512 = cpu_has_avx512();
#else
    const bool avx2 = false;
#endif
    for (; m + kMr <= M; m += kMr) {
      pack_a_tile_s8(A + m * K, K, kp0, kpc, za, kMr, apk);
      std::int64_t n = 0;
#if IOB_GEMM_DISPATCH
      if (avx512) {
        for (; n + kNr3 <= N; n += kNr3) {
          const EpiCtx ctx = epi != nullptr ? epi_tile(*epi, m, n, N) : EpiCtx{};
          micro_tile_s8_avx512(kpc, apk, kpc, bk + 2 * n, N, C + m * N + n, first,
                               last && epi != nullptr ? &ctx : nullptr);
        }
        for (; n + kNr2 <= N; n += kNr2) {
          const EpiCtx ctx = epi != nullptr ? epi_tile(*epi, m, n, N) : EpiCtx{};
          micro_tile_s8_avx512_n16(kpc, apk, kpc, bk + 2 * n, N, C + m * N + n, first,
                                   last && epi != nullptr ? &ctx : nullptr);
        }
      }
      if (avx2) {
        for (; n + kNr2 <= N; n += kNr2) {
          const EpiCtx ctx = epi != nullptr ? epi_tile(*epi, m, n, N) : EpiCtx{};
          micro_tile_s8_avx2(kpc, apk, kpc, bk + 2 * n, N, C + m * N + n, first,
                             last && epi != nullptr ? &ctx : nullptr);
        }
      }
#else
      (void)avx2;
#endif
      for (; n + kNr <= N; n += kNr) {
        const EpiCtx ctx = epi != nullptr ? epi_tile(*epi, m, n, N) : EpiCtx{};
        micro_tile_s8(kpc, apk, kpc, bk + 2 * n, N, C + m * N + n, first,
                      last && epi != nullptr ? &ctx : nullptr);
      }
      if (n < N) {
        const EpiCtx ctx = epi != nullptr ? epi_tile(*epi, m, n, N) : EpiCtx{};
        edge_tile_s8(kMr, N - n, kpc, A + m * K, K, kp0, za, bk + 2 * n, N, C + m * N + n, first,
                     last && epi != nullptr ? &ctx : nullptr);
      }
    }
#endif
    if (m < M) {
      const EpiCtx ctx = epi != nullptr ? epi_tile(*epi, m, 0, N) : EpiCtx{};
      edge_tile_s8(M - m, N, kpc, A + m * K, K, kp0, za, bk, N, C + m * N, first,
                   last && epi != nullptr ? &ctx : nullptr);
    }
  }
}

void gemm_s8_pa(std::int64_t M, std::int64_t N, std::int64_t K, const std::int32_t* Ap,
                const std::int16_t* bop, std::int32_t* C, const QuantEpilogue* epi) {
  IOB_EXPECTS(M >= 0 && N > 0 && K > 0, "gemm dims must be positive");
  IOB_EXPECTS(K < (std::int64_t{1} << 15), "int8 gemm K out of exact int32 range");
  IOB_EXPECTS(epi == nullptr || ((epi->dst != nullptr) != (epi->dstf != nullptr)),
              "quant epilogue needs exactly one target");
  const std::int64_t kp_count = (K + 1) / 2;
  for (std::int64_t kp0 = 0; kp0 < kp_count; kp0 += kKcPairs) {
    const std::int64_t kpc = std::min(kKcPairs, kp_count - kp0);
    const bool first = kp0 == 0;
    const bool last = kp0 + kpc == kp_count;
    const std::int16_t* bk = bop + kp0 * 2 * N;
    std::int64_t m = 0;
#if IOB_GEMM_SSE2
#if IOB_GEMM_DISPATCH
    const bool avx2 = cpu_has_avx2();
    const bool avx512 = cpu_has_avx512();
#endif
    for (; m + kMr <= M; m += kMr) {
      // The panel already holds this tile's pairs in the `pack_a_tile_s8`
      // layout; the microkernels just stream it with the panel's own pair
      // stride instead of the stack tile's.
      const std::int32_t* apk = Ap + (m / kMr) * (kMr * kp_count) + kp0;
      std::int64_t n = 0;
#if IOB_GEMM_DISPATCH
      if (avx512) {
        for (; n + kNr3 <= N; n += kNr3) {
          const EpiCtx ctx = epi != nullptr ? epi_tile(*epi, m, n, N) : EpiCtx{};
          micro_tile_s8_avx512(kpc, apk, kp_count, bk + 2 * n, N, C + m * N + n, first,
                               last && epi != nullptr ? &ctx : nullptr);
        }
        for (; n + kNr2 <= N; n += kNr2) {
          const EpiCtx ctx = epi != nullptr ? epi_tile(*epi, m, n, N) : EpiCtx{};
          micro_tile_s8_avx512_n16(kpc, apk, kp_count, bk + 2 * n, N, C + m * N + n, first,
                                   last && epi != nullptr ? &ctx : nullptr);
        }
      }
      if (avx2) {
        for (; n + kNr2 <= N; n += kNr2) {
          const EpiCtx ctx = epi != nullptr ? epi_tile(*epi, m, n, N) : EpiCtx{};
          micro_tile_s8_avx2(kpc, apk, kp_count, bk + 2 * n, N, C + m * N + n, first,
                             last && epi != nullptr ? &ctx : nullptr);
        }
      }
#endif
      for (; n + kNr <= N; n += kNr) {
        const EpiCtx ctx = epi != nullptr ? epi_tile(*epi, m, n, N) : EpiCtx{};
        micro_tile_s8(kpc, apk, kp_count, bk + 2 * n, N, C + m * N + n, first,
                      last && epi != nullptr ? &ctx : nullptr);
      }
      if (n < N) {
        const EpiCtx ctx = epi != nullptr ? epi_tile(*epi, m, n, N) : EpiCtx{};
        edge_tile_s8_pa(kMr, N - n, kpc, apk, kp_count, bk + 2 * n, N, C + m * N + n, first,
                        last && epi != nullptr ? &ctx : nullptr);
      }
    }
#endif
    if (m < M) {
      const EpiCtx ctx = epi != nullptr ? epi_tile(*epi, m, 0, N) : EpiCtx{};
      edge_tile_s8_pa(M - m, N, kpc, Ap + (m / kMr) * (kMr * kp_count) + kp0, kp_count, bk, N,
                      C + m * N, first, last && epi != nullptr ? &ctx : nullptr);
    }
  }
}

void requantize_s8(const std::int32_t* acc, std::int64_t M, std::int64_t N, const float* bias,
                   float scale, float relu_cap, float out_scale, std::int32_t out_zero,
                   std::int8_t* dst) {
  IOB_EXPECTS(out_scale > 0.0f, "requantize needs a positive output scale");
  const float inv = 1.0f / out_scale;
  for (std::int64_t m = 0; m < M; ++m) {
    const std::int32_t* arow = acc + m * N;
    std::int8_t* drow = dst + m * N;
    for (std::int64_t n = 0; n < N; ++n) {
      drow[n] = requantize_value(epilogue_real(arow[n], bias, n, scale, relu_cap), inv, out_zero);
    }
  }
}

void dequantize_f32(const std::int32_t* acc, std::int64_t M, std::int64_t N, const float* bias,
                    float scale, float relu_cap, float* dst) {
  for (std::int64_t m = 0; m < M; ++m) {
    const std::int32_t* arow = acc + m * N;
    float* drow = dst + m * N;
    for (std::int64_t n = 0; n < N; ++n) {
      drow[n] = epilogue_real(arow[n], bias, n, scale, relu_cap);
    }
  }
}

void quantize_f32_to_s8(const float* src, std::int64_t n, float scale, std::int32_t zero_point,
                        std::int8_t* dst) {
  IOB_EXPECTS(scale > 0.0f, "quantize needs a positive scale");
  const float inv = 1.0f / scale;
  std::int64_t i = 0;
#if IOB_GEMM_SSE2
  // Same per-lane ops as the scalar loop (mul, round-half-away via the
  // sign-or trick, truncate, add zp); packs saturation == the int8 clamp.
  const __m128 vinv = _mm_set1_ps(inv);
  const __m128 vhalf = _mm_set1_ps(0.5f);
  const __m128 vsign = _mm_set1_ps(-0.0f);
  const __m128i vzp = _mm_set1_epi32(zero_point);
  for (; i + 8 <= n; i += 8) {
    const __m128 v0 = _mm_mul_ps(_mm_loadu_ps(src + i), vinv);
    const __m128 v1 = _mm_mul_ps(_mm_loadu_ps(src + i + 4), vinv);
    const __m128 h0 = _mm_or_ps(_mm_and_ps(v0, vsign), vhalf);
    const __m128 h1 = _mm_or_ps(_mm_and_ps(v1, vsign), vhalf);
    const __m128i q0 = _mm_add_epi32(_mm_cvttps_epi32(_mm_add_ps(v0, h0)), vzp);
    const __m128i q1 = _mm_add_epi32(_mm_cvttps_epi32(_mm_add_ps(v1, h1)), vzp);
    const __m128i p16 = _mm_packs_epi32(q0, q1);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + i), _mm_packs_epi16(p16, p16));
  }
#endif
  for (; i < n; ++i) dst[i] = requantize_value(src[i], inv, zero_point);
}

namespace {

inline void fill_s8(std::int8_t* dst, std::int64_t n, std::int8_t v) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] = v;
}

/// Inline byte copy: patch slices are tiny (ic bytes, often 3-64), where a
/// libc memcpy call costs more than the copy itself (same rationale as the
/// f32 `copy_floats`).
inline void copy_s8(std::int8_t* dst, const std::int8_t* src, std::int64_t n) {
  if (n >= 64) {
    std::memcpy(dst, src, static_cast<std::size_t>(n));
  } else {
    for (std::int64_t i = 0; i < n; ++i) dst[i] = src[i];
  }
}

}  // namespace

void im2col_s8_nhwc(int batch, int ih, int iw, int ic, int kh, int kw, int sh, int sw, int pad_top,
                    int pad_left, int oh, int ow, std::int8_t zero_point, const std::int8_t* in,
                    std::int8_t* col) {
  const std::int64_t sample_elems = static_cast<std::int64_t>(ih) * iw * ic;
  for (int s = 0; s < batch; ++s) {
    const std::int8_t* ib = in + static_cast<std::int64_t>(s) * sample_elems;
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        const int x0 = ox * sw - pad_left;
        for (int ky = 0; ky < kh; ++ky) {
          const int iy = oy * sh + ky - pad_top;
          if (iy < 0 || iy >= ih) {
            fill_s8(col, static_cast<std::int64_t>(kw) * ic, zero_point);
            col += static_cast<std::int64_t>(kw) * ic;
            continue;
          }
          const std::int8_t* irow = ib + static_cast<std::int64_t>(iy) * iw * ic;
          if (x0 >= 0 && x0 + kw <= iw) {
            copy_s8(col, irow + static_cast<std::int64_t>(x0) * ic,
                    static_cast<std::int64_t>(kw) * ic);
            col += static_cast<std::int64_t>(kw) * ic;
            continue;
          }
          for (int kx = 0; kx < kw; ++kx) {
            const int ix = x0 + kx;
            if (ix < 0 || ix >= iw) {
              fill_s8(col, ic, zero_point);
            } else {
              copy_s8(col, irow + static_cast<std::int64_t>(ix) * ic, ic);
            }
            col += ic;
          }
        }
      }
    }
  }
}

namespace {

/// Widen a tap slice into the panel's int16 stream: dst[i] = src[i] - za.
/// Same SSE2 sign-extend / subtract / store sweep as `pack_a_tile_s8`.
inline void widen_sub_s16(std::int16_t* dst, const std::int8_t* src, std::int64_t n,
                          std::int32_t za) {
  std::int64_t e = 0;
#if IOB_GEMM_SSE2
  const __m128i vza = _mm_set1_epi16(static_cast<std::int16_t>(za));
  const __m128i vz = _mm_setzero_si128();
  for (; e + 8 <= n; e += 8) {
    const __m128i a8 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + e));
    const __m128i a16 = _mm_sub_epi16(_mm_unpacklo_epi8(a8, _mm_cmpgt_epi8(vz, a8)), vza);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + e), a16);
  }
#endif
  for (; e < n; ++e) dst[e] = static_cast<std::int16_t>(src[e] - za);
}

inline void fill_zero_s16(std::int16_t* dst, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] = 0;
}

}  // namespace

void im2col_pack_a_s8_nhwc(int batch, int ih, int iw, int ic, int kh, int kw, int sh, int sw,
                           int pad_top, int pad_left, int oh, int ow, std::int8_t zero_point,
                           const std::int8_t* in, std::int32_t* pack) {
  const std::int64_t sample_elems = static_cast<std::int64_t>(ih) * iw * ic;
  const std::int64_t K = static_cast<std::int64_t>(kh) * kw * ic;
  const std::int64_t kp_count = (K + 1) / 2;
  const std::int32_t za = zero_point;
  std::int64_t r = 0;
  for (int s = 0; s < batch; ++s) {
    const std::int8_t* ib = in + static_cast<std::int64_t>(s) * sample_elems;
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        // Row r's pairs are contiguous int16 within its panel slot — the
        // writes stream, unlike the f32 pack's lane scatter.
        auto* drow =
            reinterpret_cast<std::int16_t*>(pack + (r / kMr) * (kMr * kp_count) + (r % kMr) * kp_count);
        std::int64_t j = 0;
        const int x0 = ox * sw - pad_left;
        for (int ky = 0; ky < kh; ++ky) {
          const int iy = oy * sh + ky - pad_top;
          if (iy < 0 || iy >= ih) {
            // A pad tap's staged value IS the zero point: widened it is 0.
            fill_zero_s16(drow + j, static_cast<std::int64_t>(kw) * ic);
            j += static_cast<std::int64_t>(kw) * ic;
            continue;
          }
          const std::int8_t* irow = ib + static_cast<std::int64_t>(iy) * iw * ic;
          if (x0 >= 0 && x0 + kw <= iw) {
            widen_sub_s16(drow + j, irow + static_cast<std::int64_t>(x0) * ic,
                          static_cast<std::int64_t>(kw) * ic, za);
            j += static_cast<std::int64_t>(kw) * ic;
            continue;
          }
          // The in-range kx taps are one contiguous source slice; zero the
          // out-of-range head/tail and widen the middle in one sweep.
          const int kx_lo = std::min(kw, std::max(0, -x0));
          const int kx_hi = std::max(kx_lo, std::min(kw, iw - x0));
          fill_zero_s16(drow + j, static_cast<std::int64_t>(kx_lo) * ic);
          widen_sub_s16(drow + j + static_cast<std::int64_t>(kx_lo) * ic,
                        irow + static_cast<std::int64_t>(x0 + kx_lo) * ic,
                        static_cast<std::int64_t>(kx_hi - kx_lo) * ic, za);
          fill_zero_s16(drow + j + static_cast<std::int64_t>(kx_hi) * ic,
                        static_cast<std::int64_t>(kw - kx_hi) * ic);
          j += static_cast<std::int64_t>(kw) * ic;
        }
        if ((K & 1) != 0) drow[K] = 0;  // odd-K tail: pad the last pair's high half
        ++r;
      }
    }
  }
}

void widen_dw_weights_s8(const std::int8_t* w, std::int64_t taps, std::int64_t c,
                         const std::int32_t* zw, std::int16_t* dst) {
  for (std::int64_t t = 0; t < taps; ++t) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      dst[t * c + ch] = static_cast<std::int16_t>(w[t * c + ch] - zw[ch]);
    }
  }
}

void dwconv2d_s8(int batch, int ih, int iw, int c, int k, int stride, int pad_top, int pad_left,
                 int oh, int ow, const std::int8_t* in, std::int32_t za,
                 const std::int16_t* w16, const float* bias, const float* col_scales,
                 float relu_cap, float out_scale, std::int32_t out_zero, std::int8_t* out,
                 float* outf) {
  IOB_EXPECTS((out != nullptr) != (outf != nullptr), "dwconv2d_s8 needs exactly one output");
  const EpiCtx epi{bias, col_scales, out, outf, 1.0f, relu_cap,
                   out != nullptr ? 1.0f / out_scale : 0.0f, out_zero};
  const std::int64_t in_sample = static_cast<std::int64_t>(ih) * iw * c;
  const std::int64_t out_sample = static_cast<std::int64_t>(oh) * ow * c;
#if IOB_GEMM_DISPATCH
  if (cpu_has_avx512()) {
    dwconv2d_s8_avx512(batch, ih, iw, c, k, stride, pad_top, pad_left, oh, ow, in, za, w16, epi);
    return;
  }
  if (cpu_has_avx2()) {
    dwconv2d_s8_avx2(batch, ih, iw, c, k, stride, pad_top, pad_left, oh, ow, in, za, w16, epi);
    return;
  }
#endif
  for (int s = 0; s < batch; ++s) {
    const std::int8_t* ib = in + static_cast<std::int64_t>(s) * in_sample;
    const std::int64_t obase = static_cast<std::int64_t>(s) * out_sample;
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        const std::int64_t o = obase + (static_cast<std::int64_t>(oy) * ow + ox) * c;
        int ch = 0;
#if IOB_GEMM_SSE2
        // Channels-vectorized: 8 lanes per step — sign-extend the int8
        // activations, subtract the zero point, widening-multiply against
        // the pre-widened weights (mullo/mulhi + unpack), accumulate int32.
        const __m128i vza = _mm_set1_epi16(static_cast<std::int16_t>(za));
        const __m128i vz = _mm_setzero_si128();
        for (; ch + 8 <= c; ch += 8) {
          __m128i acc0 = _mm_setzero_si128();
          __m128i acc1 = _mm_setzero_si128();
          for (int ky = 0; ky < k; ++ky) {
            const int iy = oy * stride + ky - pad_top;
            if (iy < 0 || iy >= ih) continue;
            for (int kx = 0; kx < k; ++kx) {
              const int ix = ox * stride + kx - pad_left;
              if (ix < 0 || ix >= iw) continue;
              const std::int8_t* p = ib + (static_cast<std::int64_t>(iy) * iw + ix) * c + ch;
              const __m128i a8 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
              const __m128i a16 =
                  _mm_sub_epi16(_mm_unpacklo_epi8(a8, _mm_cmpgt_epi8(vz, a8)), vza);
              const __m128i wv = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                  w16 + (static_cast<std::int64_t>(ky) * k + kx) * c + ch));
              const __m128i lo = _mm_mullo_epi16(a16, wv);
              const __m128i hi = _mm_mulhi_epi16(a16, wv);
              acc0 = _mm_add_epi32(acc0, _mm_unpacklo_epi16(lo, hi));
              acc1 = _mm_add_epi32(acc1, _mm_unpackhi_epi16(lo, hi));
            }
          }
          const EpiCtx lane{bias != nullptr ? bias + ch : nullptr,
                            col_scales != nullptr ? col_scales + ch : nullptr,
                            out != nullptr ? out + o + ch : nullptr,
                            outf != nullptr ? outf + o + ch : nullptr,
                            epi.scale, epi.relu_cap, epi.inv, epi.zp};
          epi_store_row(lane, acc0, acc1, 0, 0);
        }
#endif
        // Scalar remainder (and the portable build): identical integer and
        // float expressions, so results match the vector lanes bitwise.
        for (; ch < c; ++ch) {
          std::int32_t acc = 0;
          for (int ky = 0; ky < k; ++ky) {
            const int iy = oy * stride + ky - pad_top;
            if (iy < 0 || iy >= ih) continue;
            for (int kx = 0; kx < k; ++kx) {
              const int ix = ox * stride + kx - pad_left;
              if (ix < 0 || ix >= iw) continue;
              const std::int32_t w = w16[(static_cast<std::int64_t>(ky) * k + kx) * c + ch];
              const std::int32_t a = ib[(static_cast<std::int64_t>(iy) * iw + ix) * c + ch] - za;
              acc += a * w;
            }
          }
          epilogue_scalar(epi, acc, ch, o + ch);
        }
      }
    }
  }
}

}  // namespace iob::nn
