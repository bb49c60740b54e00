#include "nn/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>

#if defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
#define IOB_GEMM_SSE2 1
#include <emmintrin.h>
#endif

// Runtime-dispatched tiers above SSE2 (gcc/clang, x86-64), picked by a CPUID
// check. Tier 1 is AVX for both f32 kernels (the GEMM tile and the depthwise
// step) and AVX2 for every int8 kernel; tier 2 is AVX-512 for both
// precisions: the AVX-512F f32 GEMM tile and every AVX-512BW int8 kernel
// (the f32 depthwise step stays on AVX); tier 3 is AVX-512 VNNI for the
// int8 kernels, whose `madd` becomes one vpdpwssd (f32 runs tier 2
// unchanged). Each precision's kernels
// are written once, as templates over a per-tier vector-ops struct, and
// each tier's target()-attributed wrapper inlines them. No tier changes a
// result. The int8 kernels accumulate exactly in int32. Every f32 lane runs
// the seed sequence at any vector width: the bias, then one rounded mul and
// one rounded add per k (per tap), in increasing order.
// Only an FMA, which rounds once, would change bits, and -ffp-contract=off
// (CMakeLists.txt) keeps the compiler from fusing.
#if IOB_GEMM_SSE2 && (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
#define IOB_GEMM_DISPATCH 1
#include <immintrin.h>
#endif

#if defined(__GNUC__) || defined(__clang__)
#define IOB_GEMM_INLINE inline __attribute__((always_inline))
/// Keep a loop-carried vector in its register: the empty asm only says the
/// value lives in a vector register at this point. Without it gcc copies
/// every int8 GEMM accumulator out and back once per k pair (two register
/// moves per `madd`) when the tile sits inside the K-block loop. It is used
/// in the ops structs' target() functions, where the register is as wide
/// as the vector.
#define IOB_GEMM_PIN(v) __asm__("" : "+v"(v))
#else
#define IOB_GEMM_INLINE inline
#define IOB_GEMM_PIN(v) (void)(v)
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

/// Tier 2: the AVX-512F f32 GEMM tile and the AVX-512BW int8 kernels.
bool cpu_has_avx512() {
  static const bool v =
      __builtin_cpu_supports("avx512f") != 0 && __builtin_cpu_supports("avx512bw") != 0;
  return v && g_dispatch_cap.load(std::memory_order_relaxed) >= 2;
}

/// Tier 3: the AVX-512 VNNI int8 kernels (f32 runs tier 2 unchanged).
bool cpu_has_avx512_vnni() {
  static const bool v = __builtin_cpu_supports("avx512f") != 0 &&
                        __builtin_cpu_supports("avx512bw") != 0 &&
                        __builtin_cpu_supports("avx512vnni") != 0;
  return v && g_dispatch_cap.load(std::memory_order_relaxed) >= 3;
}
#endif

/// The scalar relu tail: the exact per-element expression of
/// `Relu::forward_into` (cap <= 0 = uncapped).
inline float apply_tail(float cap, float v) {
  v = std::max(0.0f, v);
  if (cap > 0.0f) v = std::min(cap, v);
  return v;
}

/// The ops tiers a kernel runs, widest first.
template <class... Ops>
struct Tiers {};

// ---- f32 register tile ------------------------------------------------------
//
// One kMr x (2 * kLanes) tile, written once over a per-tier vector-ops
// struct: SSE2 (4 lanes, 4x8), AVX (8 lanes, 4x16) and AVX-512F (16 lanes,
// 4x32). `mul_add` is a rounded mul, then a rounded add, so each lane
// repeats the seed loop's `acc += a * b`. The relu tail is max(0, v), then
// min(cap, v), with the same operand order on every tier. The ops take
// vectors by reference: the template is also instantiated outside any
// target() function, where a vector passed by value would change the ABI.
// Every AVX and AVX-512 use is inlined into `tile_columns_avx`,
// `tile_columns_avx512` or `dw_f32_avx`, which carry the target.
// `Avx512Ops` sits with the AVX-512BW int8 ops, inside their pragma region.
// The depthwise step (below `im2col_nhwc`) runs on the SSE2 and AVX ops.

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
};
using BaseOps = ScalarOps;
#endif
static_assert(kMr == 4 && 2 * BaseOps::kLanes == kNr, "the base tile is kMr x kNr");

#if IOB_GEMM_DISPATCH
#define IOB_AVX __attribute__((target("avx")))
#define IOB_AVX2 __attribute__((target("avx2")))
#define IOB_AVX512 __attribute__((target("avx2,avx512f,avx512bw")))
#define IOB_AVX512_VNNI __attribute__((target("avx2,avx512f,avx512bw,avx512vnni")))
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

/// A as strided rows: term k of row i at p[i * K + k].
struct RowsA {
  const float* p;
  std::int64_t K;
  float at(std::int64_t i, std::int64_t k) const { return p[i * K + k]; }
  RowsA block(std::int64_t m, std::int64_t k0) const { return {p + m * K + k0, K}; }
};

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
template <class Ops>
IOB_GEMM_INLINE void f32_tile(const RowsA& a, const Strip& s, std::int64_t n) {
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
    for (int i = 0; i < kMr; ++i) Ops::set1(av[i], a.at(i, k));
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
template <class Ops>
IOB_GEMM_INLINE std::int64_t tile_columns(const RowsA& a, const Strip& s, std::int64_t n) {
  for (; n + 2 * Ops::kLanes <= s.N; n += 2 * Ops::kLanes) f32_tile<Ops>(a, s, n);
  return n;
}

#if IOB_GEMM_DISPATCH
IOB_AVX std::int64_t tile_columns_avx(const RowsA& a, const Strip& s, std::int64_t n) {
  return tile_columns<AvxOps>(a, s, n);
}

/// The AVX-512 tile while 32 columns remain, then the AVX tile (defined
/// with `Avx512Ops`, below).
IOB_AVX512 std::int64_t tile_columns_avx512(const RowsA& a, const Strip& s, std::int64_t n);
#endif

/// Scalar edge for the M/N remainders: rows [0, rows) x columns [n, N) of a
/// strip, each element in the seed order.
void edge_tile(std::int64_t rows, std::int64_t n, const RowsA& a, const Strip& s) {
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = n; j < s.N; ++j) {
      float acc = s.first ? (s.bias != nullptr ? s.bias[j] : 0.0f) : s.c[i * s.N + j];
      for (std::int64_t k = 0; k < s.kc; ++k) acc += a.at(i, k) * s.b[k * s.N + j];
      if (s.tail != nullptr) acc = apply_tail(s.tail->cap, acc);
      s.c[i * s.N + j] = acc;
    }
  }
}

}  // namespace

void pack_k_major(const float* src, std::int64_t rows, std::int64_t cols, float* dst) {
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) dst[c * rows + r] = src[r * cols + c];
  }
}

/// The one f32 GEMM driver: K blocks in order, kMr-row strips, then column
/// tiles, widest tier first (the AVX-512 tile while 32 columns remain, the
/// AVX tile while 16 do, then the SSE2 tile), and the scalar edge for what
/// is left.
void gemm_blocked(std::int64_t M, std::int64_t N, std::int64_t K, const float* A, const float* B,
                  const float* bias, float* C, const GemmTail& tail) {
  IOB_EXPECTS(M >= 0 && N > 0 && K > 0, "gemm dims must be positive");
  const RowsA a{A, K};
#if IOB_GEMM_DISPATCH
  const bool avx512 = cpu_has_avx512();
  const bool avx = cpu_has_avx();
#endif
  for (std::int64_t k0 = 0; k0 < K; k0 += kKc) {
    const std::int64_t kc = std::min(kKc, K - k0);
    const GemmTail* t = k0 + kc == K && tail.kind != GemmTail::Kind::kNone ? &tail : nullptr;
    Strip s{kc, N, B + k0 * N, C, bias, k0 == 0, t};
    std::int64_t m = 0;
    for (; m + kMr <= M; m += kMr, s.c += kMr * N) {
      const RowsA am = a.block(m, k0);
      std::int64_t n = 0;
#if IOB_GEMM_DISPATCH
      if (avx512) {
        n = tile_columns_avx512(am, s, n);
      } else if (avx) {
        n = tile_columns_avx(am, s, n);
      }
#endif
      n = tile_columns<BaseOps>(am, s, n);
      if (n < N) edge_tile(kMr, n, am, s);
    }
    if (m < M) edge_tile(M - m, 0, a.block(m, k0), s);
  }
}

namespace {

/// The zero-bordered sample a conv's patch rows are gathered from: the
/// window of hp x wp pixels that the output windows cover, input pixel
/// (iy, ix) at (iy + pad_top, ix + pad_left). The input rows and columns
/// that land inside it are [0, rows) x [0, cols); every other pixel, the
/// border, is 0.
struct Bordered {
  int ic, pad_top, pad_left;
  int hp, wp;
  int rows, cols;
  [[nodiscard]] std::int64_t row_elems() const { return static_cast<std::int64_t>(wp) * ic; }
  [[nodiscard]] std::int64_t elems() const { return hp * row_elems(); }
};

Bordered bordered_geometry(int ih, int iw, int ic, int kh, int kw, int sh, int sw, int pad_top,
                           int pad_left, int oh, int ow) {
  const int hp = (oh - 1) * sh + kh;
  const int wp = (ow - 1) * sw + kw;
  return {ic,
          pad_top,
          pad_left,
          hp,
          wp,
          std::clamp(hp - pad_top, 0, ih),
          std::clamp(wp - pad_left, 0, iw)};
}

/// Zero the border of `buf` (the pixels no input sample writes), once per
/// call: each sample then overwrites only the interior.
template <class T>
void zero_border(const Bordered& g, T* buf) {
  const std::int64_t row = g.row_elems();
  const std::int64_t lead = static_cast<std::int64_t>(g.pad_left) * g.ic;
  const std::int64_t trail = row - lead - static_cast<std::int64_t>(g.cols) * g.ic;
  std::fill(buf, buf + g.pad_top * row, T{0});
  for (int r = 0; r < g.rows; ++r) {
    T* line = buf + (g.pad_top + r) * row;
    std::fill(line, line + lead, T{0});
    std::fill(line + row - trail, line + row, T{0});
  }
  std::fill(buf + static_cast<std::int64_t>(g.pad_top + g.rows) * row, buf + g.elems(), T{0});
}

/// Copy n bytes with inline 16-, 8-, 4- and 2-byte moves, the last move
/// overlapping the one before it: a patch slice (kw * ic elements) is the
/// same size all call long and often 8-40 bytes, where a libc memcpy call
/// costs more than the copy.
void copy_slice(unsigned char* dst, const unsigned char* src, std::size_t n) {
  if (n >= 16) {
    for (std::size_t o = 0; o + 16 < n; o += 16) std::memcpy(dst + o, src + o, 16);
    std::memcpy(dst + n - 16, src + n - 16, 16);
  } else if (n >= 8) {
    std::memcpy(dst, src, 8);
    std::memcpy(dst + n - 8, src + n - 8, 8);
  } else if (n >= 4) {
    std::memcpy(dst, src, 4);
    std::memcpy(dst + n - 4, src + n - 4, 4);
  } else if (n >= 2) {
    std::memcpy(dst, src, 2);
  }
}

/// Every patch row of one sample from its bordered copy `buf`: row r at
/// row_at(r), as kh slices of kw * ic elements, one per kernel row.
template <class T, class RowAt>
void gather_patches(const Bordered& g, int kh, int kw, int sh, int sw, int oh, int ow,
                    const T* buf, std::int64_t r, RowAt row_at) {
  const std::int64_t row = g.row_elems();
  const std::int64_t slice = static_cast<std::int64_t>(kw) * g.ic;
  const std::size_t bytes = static_cast<std::size_t>(slice) * sizeof(T);
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox, ++r) {
      const T* src = buf + oy * sh * row + static_cast<std::int64_t>(ox) * sw * g.ic;
      T* dst = row_at(r);
      for (int ky = 0; ky < kh; ++ky, src += row, dst += slice) {
        copy_slice(reinterpret_cast<unsigned char*>(dst),
                   reinterpret_cast<const unsigned char*>(src), bytes);
      }
    }
  }
}

}  // namespace

std::int64_t bordered_sample_elems(int ic, int kh, int kw, int sh, int sw, int oh, int ow) {
  return static_cast<std::int64_t>((oh - 1) * sh + kh) * ((ow - 1) * sw + kw) * ic;
}

void im2col_nhwc(int batch, int ih, int iw, int ic, int kh, int kw, int sh, int sw, int pad_top,
                 int pad_left, int oh, int ow, const float* in, float* bordered, float* col) {
  const Bordered g = bordered_geometry(ih, iw, ic, kh, kw, sh, sw, pad_top, pad_left, oh, ow);
  const std::int64_t sample_elems = static_cast<std::int64_t>(ih) * iw * ic;
  const std::int64_t K = static_cast<std::int64_t>(kh) * kw * ic;
  const std::size_t interior = static_cast<std::size_t>(g.cols) * ic * sizeof(float);
  zero_border(g, bordered);
  for (int s = 0; s < batch; ++s) {
    const float* ib = in + s * sample_elems;
    float* line = bordered + g.pad_top * g.row_elems() + static_cast<std::int64_t>(g.pad_left) * ic;
    for (int r = 0; r < g.rows; ++r, line += g.row_elems()) {
      std::memcpy(line, ib + static_cast<std::int64_t>(r) * iw * ic, interior);
    }
    gather_patches(g, kh, kw, sh, sw, oh, ow, static_cast<const float*>(bordered),
                   static_cast<std::int64_t>(s) * oh * ow,
                   [&](std::int64_t r) { return col + r * K; });
  }
}

// ---- depthwise ---------------------------------------------------------------
//
// The f32 walk, `dw_run`, covers the output pixels; per pixel it runs
// each tier's channel step (`dw_channels<Ops>`) and then the scalar
// remainder (`dw_scalar`). Every step visits only the in-range taps, as the
// seed loop does: a zero-padded tap would turn a -0 sum into +0. The int8
// depthwise, whose sums are exact, has its own walk over a zero-bordered
// sample (below the int8 GEMM).

namespace {

/// The geometry of one depthwise call (NHWC, c channels, k x k taps).
struct DwGeom {
  int batch, ih, iw, c, k, stride, pad_top, pad_left, oh, ow;
};

/// One output pixel: its sample's input offset, the input pixel (iy0, ix0)
/// under tap (0, 0), the in-range taps [ky0, ky1) x [kx0, kx1) and the
/// output offset o.
struct DwPixel {
  std::int64_t in;
  int iy0, ix0, ky0, ky1, kx0, kx1;
  std::int64_t o;
  /// Input offset of tap (ky, kx).
  std::int64_t at(const DwGeom& g, int ky, int kx) const {
    return in + (static_cast<std::int64_t>(iy0 + ky) * g.iw + ix0 + kx) * g.c;
  }
};

/// One `dwconv2d_nhwc` call; a non-null `tail` is the fused relu.
struct DwF32 {
  DwGeom g;
  const float* in;
  const float* w;
  const float* bias;
  float* out;
  const GemmTail* tail;
};

/// Vecs * kLanes channels from ch of one pixel, in registers: the bias, then
/// per in-range tap in (ky, kx) order one rounded mul and one rounded add,
/// then the fused relu and one store.
template <class Ops, int Vecs>
IOB_GEMM_INLINE void dw_f32_step(const DwF32& d, const DwPixel& p, int ch) {
  using V = typename Ops::V;
  constexpr int W = Ops::kLanes;
  const DwGeom& g = d.g;
  V acc[Vecs];
  for (int h = 0; h < Vecs; ++h) Ops::load(acc[h], d.bias + ch + h * W);
  const std::int64_t in_row = static_cast<std::int64_t>(g.iw) * g.c;
  const std::int64_t w_row = static_cast<std::int64_t>(g.k) * g.c;
  const float* xr = d.in + p.at(g, p.ky0, p.kx0) + ch;
  const float* wr = d.w + static_cast<std::int64_t>(p.ky0 * g.k + p.kx0) * g.c + ch;
  for (int ky = p.ky0; ky < p.ky1; ++ky, xr += in_row, wr += w_row) {
    const float* x = xr;
    const float* w = wr;
    for (int kx = p.kx0; kx < p.kx1; ++kx, x += g.c, w += g.c) {
      for (int h = 0; h < Vecs; ++h) {
        V wv, xv;
        Ops::load(wv, w + h * W);
        Ops::load(xv, x + h * W);
        Ops::mul_add(acc[h], wv, xv);
      }
    }
  }
  if (d.tail != nullptr) {
    for (V& v : acc) Ops::relu(v, d.tail->cap);
  }
  for (int h = 0; h < Vecs; ++h) Ops::store(d.out + p.o + ch + h * W, acc[h]);
}

/// Vecs-vector blocks from ch while they fit, then at most one block of
/// each smaller power of two; returns the first channel left.
template <class Ops, int Vecs>
IOB_GEMM_INLINE int dw_f32_blocks(const DwF32& d, const DwPixel& p, int ch) {
  for (; ch + Vecs * Ops::kLanes <= d.g.c; ch += Vecs * Ops::kLanes) {
    dw_f32_step<Ops, Vecs>(d, p, ch);
  }
  if constexpr (Vecs > 1) return dw_f32_blocks<Ops, Vecs / 2>(d, p, ch);
  return ch;
}

/// The f32 depthwise channel step of tier Ops: blocks of up to 8 vectors
/// (8 accumulators and two operands fit the 16 registers of every tier).
template <class Ops>
IOB_GEMM_INLINE int dw_channels(const DwF32& d, const DwPixel& p, int ch) {
  return dw_f32_blocks<Ops, 8>(d, p, ch);
}

/// Channels [ch, c) of one pixel, one lane at a time in the same order.
inline void dw_scalar(const DwF32& d, const DwPixel& p, int ch) {
  const DwGeom& g = d.g;
  for (; ch < g.c; ++ch) {
    float acc = d.bias[ch];
    for (int ky = p.ky0; ky < p.ky1; ++ky) {
      for (int kx = p.kx0; kx < p.kx1; ++kx) {
        acc += d.w[static_cast<std::int64_t>(ky * g.k + kx) * g.c + ch] * d.in[p.at(g, ky, kx) + ch];
      }
    }
    if (d.tail != nullptr) acc = apply_tail(d.tail->cap, acc);
    d.out[p.o + ch] = acc;
  }
}

/// The f32 depthwise walk: per output pixel, each tier's channel step
/// `dw_channels<Ops>` in turn, widest first, then the scalar remainder
/// `dw_scalar`.
template <class... Ops>
IOB_GEMM_INLINE void dw_run(Tiers<Ops...>, const DwF32& d) {
  const DwGeom& g = d.g;
  const std::int64_t in_sample = static_cast<std::int64_t>(g.ih) * g.iw * g.c;
  std::int64_t o = 0;
  for (int s = 0; s < g.batch; ++s) {
    for (int oy = 0; oy < g.oh; ++oy) {
      const int iy0 = oy * g.stride - g.pad_top;
      const int ky0 = std::max(0, -iy0);
      const int ky1 = std::min(g.k, g.ih - iy0);
      for (int ox = 0; ox < g.ow; ++ox, o += g.c) {
        const int ix0 = ox * g.stride - g.pad_left;
        const DwPixel p{s * in_sample, iy0, ix0, ky0, ky1, std::max(0, -ix0),
                        std::min(g.k, g.iw - ix0), o};
        int ch = 0;
        ((ch = dw_channels<Ops>(d, p, ch)), ...);
        dw_scalar(d, p, ch);
      }
    }
  }
}

#if IOB_GEMM_DISPATCH
IOB_AVX void dw_f32_avx(const DwF32& d) { dw_run(Tiers<AvxOps, BaseOps>{}, d); }
#endif

}  // namespace

void dwconv2d_nhwc(int batch, int ih, int iw, int c, int k, int stride, int pad_top, int pad_left,
                   int oh, int ow, const float* in, const float* wpacked, const float* bias,
                   float* out, const GemmTail& tail) {
  const DwF32 d{{batch, ih, iw, c, k, stride, pad_top, pad_left, oh, ow}, in, wpacked, bias, out,
                tail.kind != GemmTail::Kind::kNone ? &tail : nullptr};
#if IOB_GEMM_DISPATCH
  if (cpu_has_avx()) return dw_f32_avx(d);
#endif
  dw_run(Tiers<BaseOps>{}, d);
}

// ---- int8 execution path ----------------------------------------------------
//
// Every int8 kernel is written once over a per-tier ops struct: SSE2 (4
// int32 lanes), AVX2 (8), AVX-512BW (16) and AVX-512 VNNI (the AVX-512BW
// ops with a one-instruction `madd`). The GEMM register tile
// `s8_tile<Ops, Vecs>` is kMr rows by Vecs vectors (up to 4 x 64 on
// AVX-512) and retires one k pair per `madd`; the depthwise step
// `dw_s8_step<Ops, Px, Vecs>` covers up to 4 output pixels by 2 vectors
// of channels and retires one pair of neighbouring kernel taps per `madd`
// from the tap-pair sample; both end in the one fused epilogue
// `s8_epilogue<Ops>`, which the GEMM runs per strip once a strip's int32
// sums are in C. Each kernel's one driver runs a list of tiers, widest
// first, so the narrower tiers take the remainders and one scalar edge
// takes the rest; a host tier's target() wrapper inlines the driver over
// its list (AVX-512: its own ops, then AVX2 and SSE2).
// Products and sums are exact int32, and the epilogue runs the IEEE ops of
// `epilogue_scalar` lane for lane, so every tier gives the same bits.

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
/// kKc). An A tile packs kMr x kKcPairs pairs on the stack.
constexpr std::int64_t kKcPairs = 128;

/// Shared scalar epilogue core: affine accumulator -> real value, optional
/// fused relu. Every quantized epilogue (standalone, GEMM-fused, depthwise)
/// runs these exact expressions, scalar or lane for lane.
inline float epilogue_real(std::int32_t acc, const float* bias, std::int64_t n, float scale,
                           float relu_cap) {
  float v = (bias != nullptr ? bias[n] : 0.0f) + scale * static_cast<float>(acc);
  if (relu_cap >= 0.0f) {
    v = std::max(0.0f, v);
    if (relu_cap > 0.0f) v = std::min(relu_cap, v);
  }
  return v;
}

/// The epilogue on one accumulator: bias and scale column j, output element
/// di of `dst` or `dstf`.
inline void epilogue_scalar(const QuantEpilogue& e, std::int32_t acc, std::int64_t j,
                            std::int64_t di) {
  const float v = epilogue_real(acc, e.bias, j, e.col_scales[j], e.relu_cap);
  if (e.dstf != nullptr) {
    e.dstf[di] = v;
  } else {
    e.dst[di] = requantize_value(v, e.inv_out_scale, e.out_zero);
  }
}

// The ops take and return vectors by reference, as the f32 ops do: the
// templates that call them are also instantiated outside any target()
// function, where a vector passed by value would change the ABI.

#if IOB_GEMM_SSE2
/// SSE2 int8 ops: 4 int32 (8 int16) lanes.
struct Sse2S8 {
  using I = __m128i;
  using F = __m128;
  static constexpr int kLanes = 4;
  /// GEMM tile width in vectors: kMr x 2 accumulators fit 16 registers.
  static constexpr int kTileVecs = 2;
  static void zero(I& v) { v = _mm_setzero_si128(); }
  static void load(I& v, const void* p) { v = _mm_loadu_si128(static_cast<const I*>(p)); }
  static void store(void* p, const I& v) { _mm_storeu_si128(static_cast<I*>(p), v); }
  static void set1(I& v, std::int32_t x) { v = _mm_set1_epi32(x); }
  /// acc += pmaddwd(a, b): per lane, two int16 products summed in int32.
  static void madd(I& acc, const I& a, const I& b) {
    acc = _mm_add_epi32(acc, _mm_madd_epi16(a, b));
  }
  static void pin(I& v) { IOB_GEMM_PIN(v); }
  static void loadf(F& v, const float* p) { v = _mm_loadu_ps(p); }
  static void storef(float* p, const F& v) { _mm_storeu_ps(p, v); }
  /// r = s * float(acc).
  static void scale(F& r, const I& acc, const F& s) { r = _mm_mul_ps(s, _mm_cvtepi32_ps(acc)); }
  static void add_bias(F& r, const float* bias) { r = _mm_add_ps(_mm_loadu_ps(bias), r); }
  static void relu(F& r, float cap) {
    r = _mm_max_ps(_mm_setzero_ps(), r);
    if (cap > 0.0f) r = _mm_min_ps(_mm_set1_ps(cap), r);
  }
  /// `requantize_value` per lane: round_away(v * inv) as trunc(x +
  /// copysign(0.5, x)), plus zp; the saturating packs are the int8 clamp.
  static void store_requant(std::int8_t* p, const F& v, float inv, std::int32_t zp) {
    const F x = _mm_mul_ps(v, _mm_set1_ps(inv));
    const F h = _mm_or_ps(_mm_and_ps(x, _mm_set1_ps(-0.0f)), _mm_set1_ps(0.5f));
    const I q = _mm_add_epi32(_mm_cvttps_epi32(_mm_add_ps(x, h)), _mm_set1_epi32(zp));
    const I q16 = _mm_packs_epi32(q, q);
    const int q8 = _mm_cvtsi128_si32(_mm_packs_epi16(q16, q16));
    std::memcpy(p, &q8, sizeof q8);
  }
  static void set1_16(I& v, std::int32_t x) { v = _mm_set1_epi16(static_cast<std::int16_t>(x)); }
  /// 2 * kLanes int8 at p, sign-extended to int16, minus the zero point.
  static void widen_s8(I& v, const std::int8_t* p, const I& za) {
    const I a8 = _mm_loadl_epi64(reinterpret_cast<const I*>(p));
    v = _mm_sub_epi16(_mm_unpacklo_epi8(a8, _mm_cmpgt_epi8(_mm_setzero_si128(), a8)), za);
  }
  /// kLanes tap-pair entries: per channel ch in order, the int16 pair
  /// (a[ch] - za, b[ch] - za), bytes interleaved before they are widened.
  static void pair_s8(I& v, const std::int8_t* a, const std::int8_t* b, const I& za) {
    std::int32_t a4, b4;
    std::memcpy(&a4, a, sizeof a4);
    std::memcpy(&b4, b, sizeof b4);
    const I ab = _mm_unpacklo_epi8(_mm_cvtsi32_si128(a4), _mm_cvtsi32_si128(b4));
    v = _mm_sub_epi16(_mm_unpacklo_epi8(ab, _mm_cmpgt_epi8(_mm_setzero_si128(), ab)), za);
  }
  static void mask(I& v, const I& m) { v = _mm_and_si128(v, m); }
};
#endif

#if IOB_GEMM_DISPATCH
/// AVX2 int8 ops: 8 int32 lanes.
struct Avx2S8 {
  using I = __m256i;
  using F = __m256;
  static constexpr int kLanes = 8;
  static constexpr int kTileVecs = 2;
  IOB_AVX2 static void zero(I& v) { v = _mm256_setzero_si256(); }
  IOB_AVX2 static void load(I& v, const void* p) {
    v = _mm256_loadu_si256(static_cast<const I*>(p));
  }
  IOB_AVX2 static void store(void* p, const I& v) { _mm256_storeu_si256(static_cast<I*>(p), v); }
  IOB_AVX2 static void set1(I& v, std::int32_t x) { v = _mm256_set1_epi32(x); }
  IOB_AVX2 static void madd(I& acc, const I& a, const I& b) {
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a, b));
  }
  IOB_AVX2 static void pin(I& v) { IOB_GEMM_PIN(v); }
  IOB_AVX2 static void loadf(F& v, const float* p) { v = _mm256_loadu_ps(p); }
  IOB_AVX2 static void storef(float* p, const F& v) { _mm256_storeu_ps(p, v); }
  IOB_AVX2 static void scale(F& r, const I& acc, const F& s) {
    r = _mm256_mul_ps(s, _mm256_cvtepi32_ps(acc));
  }
  IOB_AVX2 static void add_bias(F& r, const float* bias) {
    r = _mm256_add_ps(_mm256_loadu_ps(bias), r);
  }
  IOB_AVX2 static void relu(F& r, float cap) {
    r = _mm256_max_ps(_mm256_setzero_ps(), r);
    if (cap > 0.0f) r = _mm256_min_ps(_mm256_set1_ps(cap), r);
  }
  IOB_AVX2 static void store_requant(std::int8_t* p, const F& v, float inv, std::int32_t zp) {
    const F x = _mm256_mul_ps(v, _mm256_set1_ps(inv));
    const F h = _mm256_or_ps(_mm256_and_ps(x, _mm256_set1_ps(-0.0f)), _mm256_set1_ps(0.5f));
    const I q = _mm256_add_epi32(_mm256_cvttps_epi32(_mm256_add_ps(x, h)), _mm256_set1_epi32(zp));
    const __m128i q16 = _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256(q, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(p), _mm_packs_epi16(q16, q16));
  }
  IOB_AVX2 static void set1_16(I& v, std::int32_t x) {
    v = _mm256_set1_epi16(static_cast<std::int16_t>(x));
  }
  IOB_AVX2 static void pair_s8(I& v, const std::int8_t* a, const std::int8_t* b, const I& za) {
    const __m128i ab = _mm_unpacklo_epi8(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(a)),
                                         _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b)));
    v = _mm256_sub_epi16(_mm256_cvtepi8_epi16(ab), za);
  }
  IOB_AVX2 static void mask(I& v, const I& m) { v = _mm256_and_si256(v, m); }
};

// GCC 12's AVX-512 intrinsics trip -Wmaybe-uninitialized on the unused
// merge operand of their maskless forms; the value is never read.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

/// AVX-512BW int8 ops: 16 int32 lanes. The f32 bit ops go through the
/// integer forms (the _ps forms need AVX-512DQ).
struct Avx512S8 {
  using I = __m512i;
  using F = __m512;
  static constexpr int kLanes = 16;
  /// kMr x 4 accumulators (a 4 x 64 tile) fit the 32 AVX-512 registers with
  /// the four B vectors and the broadcast.
  static constexpr int kTileVecs = 4;
  IOB_AVX512 static void zero(I& v) { v = _mm512_setzero_si512(); }
  IOB_AVX512 static void load(I& v, const void* p) { v = _mm512_loadu_si512(p); }
  IOB_AVX512 static void store(void* p, const I& v) { _mm512_storeu_si512(p, v); }
  IOB_AVX512 static void set1(I& v, std::int32_t x) { v = _mm512_set1_epi32(x); }
  IOB_AVX512 static void madd(I& acc, const I& a, const I& b) {
    acc = _mm512_add_epi32(acc, _mm512_madd_epi16(a, b));
  }
  IOB_AVX512 static void pin(I& v) { IOB_GEMM_PIN(v); }
  IOB_AVX512 static void loadf(F& v, const float* p) { v = _mm512_loadu_ps(p); }
  IOB_AVX512 static void storef(float* p, const F& v) { _mm512_storeu_ps(p, v); }
  IOB_AVX512 static void scale(F& r, const I& acc, const F& s) {
    r = _mm512_mul_ps(s, _mm512_cvtepi32_ps(acc));
  }
  IOB_AVX512 static void add_bias(F& r, const float* bias) {
    r = _mm512_add_ps(_mm512_loadu_ps(bias), r);
  }
  IOB_AVX512 static void relu(F& r, float cap) {
    r = _mm512_max_ps(_mm512_setzero_ps(), r);
    if (cap > 0.0f) r = _mm512_min_ps(_mm512_set1_ps(cap), r);
  }
  /// vpmovsdb saturates int32 to int8 in one step, as the two packs do;
  /// one vpternlogd forms copysign(0.5, x) as (x & sign bit) | 0.5.
  IOB_AVX512 static void store_requant(std::int8_t* p, const F& v, float inv, std::int32_t zp) {
    const F x = _mm512_mul_ps(v, _mm512_set1_ps(inv));
    const I h = _mm512_ternarylogic_epi32(_mm512_castps_si512(x), _mm512_set1_epi32(INT32_MIN),
                                          _mm512_castps_si512(_mm512_set1_ps(0.5f)), 0xea);
    const F xh = _mm512_add_ps(x, _mm512_castsi512_ps(h));
    const I q = _mm512_add_epi32(_mm512_cvttps_epi32(xh), _mm512_set1_epi32(zp));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), _mm512_cvtsepi32_epi8(q));
  }
  IOB_AVX512 static void set1_16(I& v, std::int32_t x) {
    v = _mm512_set1_epi16(static_cast<std::int16_t>(x));
  }
  /// Each int32 lane widened on its own and b shifted into the high half:
  /// two shuffle-port widenings per 16 pairs, where interleaving the bytes
  /// first takes four.
  IOB_AVX512 static void pair_s8(I& v, const std::int8_t* a, const std::int8_t* b,
                                 const I& za) {
    const I a32 = _mm512_cvtepi8_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(a)));
    const I b32 = _mm512_cvtepi8_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(b)));
    v = _mm512_sub_epi16(_mm512_mask_blend_epi16(0xaaaaaaaau, a32, _mm512_slli_epi32(b32, 16)),
                         za);
  }
  IOB_AVX512 static void mask(I& v, const I& m) { v = _mm512_and_si512(v, m); }
};

/// AVX-512 VNNI int8 ops: the AVX-512BW ops with `madd` as one vpdpwssd,
/// which sums the same two int16 products into each int32 lane as
/// vpmaddwd + vpaddd, without their wrap-around difference: the operands
/// are bounded by 255, so neither form can overflow.
struct Avx512VnniS8 : Avx512S8 {
  IOB_AVX512_VNNI static void madd(I& acc, const I& a, const I& b) {
    acc = _mm512_dpwssd_epi32(acc, a, b);
  }
};

/// AVX-512F f32 ops for the GEMM tile: 16 lanes, the `AvxOps` sequence.
struct Avx512Ops {
  using V = __m512;
  static constexpr int kLanes = 16;
  IOB_AVX512 static void load(V& v, const float* p) { v = _mm512_loadu_ps(p); }
  IOB_AVX512 static void store(float* p, const V& v) { _mm512_storeu_ps(p, v); }
  IOB_AVX512 static void set1(V& v, float x) { v = _mm512_set1_ps(x); }
  IOB_AVX512 static void mul_add(V& acc, const V& a, const V& b) {
    acc = _mm512_add_ps(acc, _mm512_mul_ps(a, b));
  }
  IOB_AVX512 static void relu(V& v, float cap) {
    v = _mm512_max_ps(_mm512_setzero_ps(), v);
    if (cap > 0.0f) v = _mm512_min_ps(_mm512_set1_ps(cap), v);
  }
};

IOB_AVX512 std::int64_t tile_columns_avx512(const RowsA& a, const Strip& s, std::int64_t n) {
  return tile_columns<AvxOps>(a, s, tile_columns<Avx512Ops>(a, s, n));
}
#endif

/// The fused epilogue on Rows x Vecs vectors of accumulators: vector h of
/// row i holds bias and scale columns [j + h * kLanes, ...) and output
/// elements [di[i] + h * kLanes, ...). Each option is tested once per call,
/// not per vector, and the scales are loaded once per column vector. The
/// IEEE ops and their operand order are `epilogue_scalar`'s.
template <class Ops, int Rows, int Vecs>
IOB_GEMM_INLINE void s8_epilogue(const QuantEpilogue& e, const typename Ops::I (&acc)[Rows][Vecs],
                                 std::int64_t j, const std::int64_t (&di)[Rows]) {
  constexpr int W = Ops::kLanes;
  typename Ops::F r[Rows][Vecs];
  for (int h = 0; h < Vecs; ++h) {
    typename Ops::F s;
    Ops::loadf(s, e.col_scales + j + h * W);
    for (int i = 0; i < Rows; ++i) Ops::scale(r[i][h], acc[i][h], s);
  }
  if (e.bias != nullptr) {
    for (int i = 0; i < Rows; ++i) {
      for (int h = 0; h < Vecs; ++h) Ops::add_bias(r[i][h], e.bias + j + h * W);
    }
  }
  if (e.relu_cap >= 0.0f) {
    for (int i = 0; i < Rows; ++i) {
      for (int h = 0; h < Vecs; ++h) Ops::relu(r[i][h], e.relu_cap);
    }
  }
  for (int i = 0; i < Rows; ++i) {
    for (int h = 0; h < Vecs; ++h) {
      if (e.dstf != nullptr) {
        Ops::storef(e.dstf + di[i] + h * W, r[i][h]);
      } else {
        Ops::store_requant(e.dst + di[i] + h * W, r[i][h], e.inv_out_scale, e.out_zero);
      }
    }
  }
}

/// dst[i] = src[i] - za as int16: the A operand's sign-extend / subtract
/// sweep.
inline void widen_sub_s16(std::int16_t* dst, const std::int8_t* src, std::int64_t n,
                          std::int32_t za) {
  std::int64_t e = 0;
#if IOB_GEMM_SSE2
  Sse2S8::I vza, v;
  Sse2S8::set1_16(vza, za);
  for (; e + 8 <= n; e += 8) {
    Sse2S8::widen_s8(v, src + e, vza);
    Sse2S8::store(dst + e, v);
  }
#endif
  for (; e < n; ++e) dst[e] = static_cast<std::int16_t>(src[e] - za);
}

inline void fill_zero_s16(std::int16_t* dst, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] = 0;
}

/// Pack `rows` rows of A for K pairs [kp0, kp0 + kpc), row i at dst + 2 *
/// kpc * i: the `im2col_pack_a_s8_nhwc` pair layout, zero-filled past K.
void pack_a_tile_s8(const std::int8_t* a, std::int64_t K, std::int64_t kp0, std::int64_t kpc,
                    std::int32_t za, std::int64_t rows, std::int16_t* dst) {
  const std::int64_t k0 = kp0 * 2;
  const std::int64_t kelems = std::min(2 * kpc, K - k0);
  for (std::int64_t i = 0; i < rows; ++i, dst += 2 * kpc) {
    widen_sub_s16(dst, a + i * K + k0, kelems, za);
    fill_zero_s16(dst + kelems, 2 * kpc - kelems);
  }
}

/// The (k, k + 1) pair p of an A tile as the int32 `madd` broadcasts. A
/// tile is written as int16, so it is read through memcpy, not an int32
/// lvalue.
inline std::int32_t a_pair(const std::int16_t* a, std::int64_t p) {
  std::int32_t v;
  std::memcpy(&v, a + 2 * p, sizeof v);
  return v;
}

/// One K block of one kMr-row strip of C: A pairs of row i at a + 2 *
/// astride * i, B pairs from column 0 at b, C rows at c. On the first K
/// block the accumulators start at 0; afterwards they re-load the partial
/// sums from C. A non-null `epi` (final K block only) writes the epilogue
/// result for C rows [m, m + kMr) once the strip's int32 sums are in C.
struct S8Strip {
  std::int64_t kpc;
  const std::int16_t* a;
  std::int64_t astride;
  const std::int16_t* b;
  std::int64_t N;
  std::int32_t* c;
  std::int64_t m;
  bool first;
  const QuantEpilogue* epi;
};

/// Scalar edge for the M/N remainders: rows [0, rows) x columns [n, N) of a
/// strip, in exact int32, so it matches the vector tiles bitwise (and is the
/// whole kernel in a build without SSE2).
void edge_tile_s8_pa(std::int64_t rows, std::int64_t n, const S8Strip& s) {
  for (std::int64_t i = 0; i < rows; ++i) {
    const std::int16_t* arow = s.a + 2 * s.astride * i;
    for (std::int64_t j = n; j < s.N; ++j) {
      std::int32_t acc = s.first ? 0 : s.c[i * s.N + j];
      for (std::int64_t kp = 0; kp < s.kpc; ++kp) {
        const std::int16_t* bp = s.b + (kp * s.N + j) * 2;
        acc += arow[2 * kp] * bp[0] + arow[2 * kp + 1] * bp[1];
      }
      if (s.epi != nullptr) {
        epilogue_scalar(*s.epi, acc, j, (s.m + i) * s.N + j);
      } else {
        s.c[i * s.N + j] = acc;
      }
    }
  }
}

/// The kMr x (Vecs * kLanes) register tile on columns from n of a strip:
/// one `madd` per row, vector and k pair, so each instruction retires 2 *
/// kLanes MACs. The int32 sums always go to C; the epilogue runs over the
/// whole strip afterwards (`s8_strip_epilogue`), since a fused one made gcc
/// spill the accumulators inside the k loop.
template <class Ops, int Vecs>
IOB_GEMM_INLINE void s8_tile(const S8Strip& s, std::int64_t n) {
  using I = typename Ops::I;
  constexpr int W = Ops::kLanes;
  // Locals, not reads through `s`: the intrinsic stores may alias anything.
  const std::int64_t N = s.N;
  const std::int64_t kpc = s.kpc;
  const std::int64_t as = s.astride;
  const std::int16_t* a = s.a;
  const std::int16_t* b = s.b + 2 * n;
  std::int32_t* c = s.c + n;
  I acc[kMr][Vecs];
  for (int i = 0; i < kMr; ++i) {
    for (int h = 0; h < Vecs; ++h) {
      if (s.first) {
        Ops::zero(acc[i][h]);
      } else {
        Ops::load(acc[i][h], c + i * N + h * W);
      }
    }
  }
  for (std::int64_t kp = 0; kp < kpc; ++kp) {
    I bv[Vecs];
    for (int h = 0; h < Vecs; ++h) Ops::load(bv[h], b + kp * 2 * N + h * 2 * W);
    for (int i = 0; i < kMr; ++i) {
      I ai;
      Ops::set1(ai, a_pair(a, i * as + kp));
      for (int h = 0; h < Vecs; ++h) Ops::madd(acc[i][h], ai, bv[h]);
    }
    for (int i = 0; i < kMr; ++i) {
      for (int h = 0; h < Vecs; ++h) Ops::pin(acc[i][h]);
    }
  }
  for (int i = 0; i < kMr; ++i) {
    for (int h = 0; h < Vecs; ++h) Ops::store(c + i * N + h * W, acc[i][h]);
  }
}

/// Tier Ops's Vecs-vector tiles from column n while they fit, then at most
/// one tile of each smaller power of two; returns the first column left.
template <class Ops, int Vecs = Ops::kTileVecs>
IOB_GEMM_INLINE std::int64_t s8_columns(const S8Strip& s, std::int64_t n) {
  for (; n + Vecs * Ops::kLanes <= s.N; n += Vecs * Ops::kLanes) s8_tile<Ops, Vecs>(s, n);
  if constexpr (Vecs > 1) return s8_columns<Ops, Vecs / 2>(s, n);
  return n;
}

/// The fused epilogue on the strip's int32 sums in C, columns [j, end) in
/// whole vectors of tier Ops; returns the first column left.
template <class Ops>
IOB_GEMM_INLINE std::int64_t s8_strip_epilogue(const S8Strip& s, std::int64_t j,
                                               std::int64_t end) {
  constexpr int W = Ops::kLanes;
  const QuantEpilogue e = *s.epi;
  for (; j + W <= end; j += W) {
    typename Ops::I acc[kMr][1];
    std::int64_t di[kMr];
    for (int i = 0; i < kMr; ++i) {
      Ops::load(acc[i][0], s.c + i * s.N + j);
      di[i] = (s.m + i) * s.N + j;
    }
    s8_epilogue<Ops>(e, acc, j, di);
  }
  return j;
}

/// One int8 GEMM. A is row-major int8 (`gemm_s8`: each strip packs its rows
/// on the stack) or pre-packed panels (`gemm_s8_pa`); exactly one is set.
struct S8Gemm {
  std::int64_t M, N, K;
  const std::int8_t* a;
  std::int32_t za;
  const std::int16_t* panels;
  const std::int16_t* bop;
  std::int32_t* C;
  const QuantEpilogue* epi;
};

/// The one int8 GEMM driver: K blocks in order, kMr-row strips, then each
/// tier's column tiles, and the scalar edge for the M and N remainders.
template <class... Ops>
IOB_GEMM_INLINE void s8_run(Tiers<Ops...>, const S8Gemm& g) {
  const std::int64_t N = g.N;
  const std::int64_t kp_count = (g.K + 1) / 2;
  std::int16_t tile[2 * kMr * kKcPairs];
  for (std::int64_t kp0 = 0; kp0 < kp_count; kp0 += kKcPairs) {
    const std::int64_t kpc = std::min(kKcPairs, kp_count - kp0);
    S8Strip s{kpc, nullptr, 0, g.bop + kp0 * 2 * N, N, nullptr, 0, kp0 == 0,
              kp0 + kpc == kp_count ? g.epi : nullptr};
    for (std::int64_t m = 0; m < g.M; m += kMr) {
      const std::int64_t rows = std::min<std::int64_t>(kMr, g.M - m);
      if (g.panels != nullptr) {
        s.a = g.panels + 2 * ((m / kMr) * kMr * kp_count + kp0);
        s.astride = kp_count;
      } else {
        pack_a_tile_s8(g.a + m * g.K, g.K, kp0, kpc, g.za, rows, tile);
        s.a = tile;
        s.astride = kpc;
      }
      s.c = g.C + m * N;
      s.m = m;
      std::int64_t n = 0;
      if (rows == kMr) {
        ((n = s8_columns<Ops>(s, n)), ...);
        if (s.epi != nullptr) {
          [[maybe_unused]] std::int64_t j = 0;  // unread in a build without SSE2
          ((j = s8_strip_epilogue<Ops>(s, j, n)), ...);
        }
      }
      if (n < N) edge_tile_s8_pa(rows, n, s);
    }
  }
}

// ---- int8 depthwise ----------------------------------------------------------
//
// Each sample is widened once into the tap-pair sample (`dw_pair_row`):
// entry (y, x) of the zero-bordered window holds, per channel, the int16
// pair (in[y][x] - za, in[y][x + 1] - za), with 0 for a border pixel. Kernel
// taps 2j and 2j + 1 of a row read input columns x and x + 1, so one pair
// entry at column ox * stride + 2j meets weight entry (ky, j) in one `madd`
// at any stride. The step then reads k * ceil(k / 2) entries per vector
// with no tap-range check: a border pair and the zero weight past the end
// of an odd row add exactly 0 to the int32 sum.

/// One `dwconv2d_s8` call; `pairs` is the one-sample tap-pair arena.
struct DwS8 {
  DwGeom g;
  const std::int8_t* in;
  std::int32_t za;
  std::int16_t* pairs;
  const std::int16_t* w16;
  QuantEpilogue epi;
  /// Int16 per pixel entry and per row of the tap-pair sample.
  [[nodiscard]] std::int64_t entry() const { return 2 * static_cast<std::int64_t>(g.c); }
  [[nodiscard]] std::int64_t row() const {
    return static_cast<std::int64_t>((g.ow - 1) * g.stride + g.k) * entry();
  }
};

/// The columns of the tap-pair sample a sample writes, as a `Bordered` over
/// pair entries (2 * c int16 per pixel): from the left-edge entry pad_left
/// - 1, (0, in[0]), to the right-edge entry pad_left + cols - 1, (in[cols -
/// 1], 0). Everything else is the border.
Bordered dw_pair_border(Bordered b) {
  const int x0 = b.cols > 0 ? std::max(b.pad_left - 1, 0) : 0;
  b.cols = b.cols > 0 ? b.pad_left + b.cols - x0 : 0;
  b.pad_left = x0;
  b.ic *= 2;
  return b;
}

/// n consecutive tap-pair entries: dst[2e] = a[e] - za if lo, and dst[2e +
/// 1] = b[e] - za if hi, else 0.
struct PairRun {
  std::int16_t* dst;
  const std::int8_t* a;
  const std::int8_t* b;
  std::int64_t n;
  std::int32_t za;
  bool lo, hi;
};

/// Entries [e, n) of a run in whole vectors of tier Ops; returns the first
/// entry left.
template <class Ops>
IOB_GEMM_INLINE std::int64_t dw_pair_entries(const PairRun& r, std::int64_t e) {
  using I = typename Ops::I;
  constexpr int W = Ops::kLanes;
  const std::uint32_t halves = (r.lo ? 0x0000ffffu : 0u) | (r.hi ? 0xffff0000u : 0u);
  I za, keep;
  Ops::set1_16(za, r.za);
  Ops::set1(keep, static_cast<std::int32_t>(halves));
  for (; e + W <= r.n; e += W) {
    I v;
    Ops::pair_s8(v, r.a + e, r.b + e, za);
    if (!(r.lo && r.hi)) Ops::mask(v, keep);
    Ops::store(r.dst + 2 * e, v);
  }
  return e;
}

/// One run through each tier, widest first, then one entry at a time.
template <class... Ops>
IOB_GEMM_INLINE void dw_pair_run(Tiers<Ops...>, const PairRun& r) {
  std::int64_t e = 0;
  ((e = dw_pair_entries<Ops>(r, e)), ...);
  for (; e < r.n; ++e) {
    r.dst[2 * e] = r.lo ? static_cast<std::int16_t>(r.a[e] - r.za) : std::int16_t{0};
    r.dst[2 * e + 1] = r.hi ? static_cast<std::int16_t>(r.b[e] - r.za) : std::int16_t{0};
  }
}

/// The written entries of one interior row of the tap-pair sample (`line`)
/// from input row `src`: the left edge, the pairs of neighbouring input
/// pixels, the right edge.
template <class... Ops>
IOB_GEMM_INLINE void dw_pair_row(Tiers<Ops...> t, const Bordered& b, std::int32_t za,
                                 const std::int8_t* src, std::int16_t* line) {
  const std::int64_t c = b.ic;
  const std::int8_t* last = src + (b.cols - 1) * c;
  std::int16_t* first = line + b.pad_left * 2 * c;
  if (b.pad_left > 0) dw_pair_run(t, {first - 2 * c, src, src, c, za, false, true});
  dw_pair_run(t, {first, src, src + c, (b.cols - 1) * c, za, true, true});
  dw_pair_run(t, {first + (b.cols - 1) * 2 * c, last, last, c, za, true, false});
}

/// Vecs * kLanes channels from ch of Px neighbouring output pixels of a
/// row: pixel p's window starts at tap-pair entry px + p * stride * entry
/// and its output at o + p * c. Per kernel row and tap pair, Vecs weight
/// vectors are loaded once and meet each pixel's input in one `madd`; then
/// the fused epilogue.
template <class Ops, int Px, int Vecs>
IOB_GEMM_INLINE void dw_s8_step(const DwS8& d, const std::int16_t* px, std::int64_t o, int ch) {
  using I = typename Ops::I;
  constexpr int W = Ops::kLanes;
  const std::int64_t entry = d.entry();
  const std::int64_t row = d.row();
  const std::int64_t step = d.g.stride * entry;
  const int pairs = (d.g.k + 1) / 2;
  I acc[Px][Vecs];
  for (int p = 0; p < Px; ++p) {
    for (int h = 0; h < Vecs; ++h) Ops::zero(acc[p][h]);
  }
  const std::int16_t* xr = px + 2 * ch;
  const std::int16_t* w = d.w16 + 2 * ch;
  for (int ky = 0; ky < d.g.k; ++ky, xr += row) {
    const std::int16_t* x = xr;
    for (int j = 0; j < pairs; ++j, x += 2 * entry, w += entry) {
      I wv[Vecs];
      for (int h = 0; h < Vecs; ++h) Ops::load(wv[h], w + h * 2 * W);
      for (int p = 0; p < Px; ++p) {
        for (int h = 0; h < Vecs; ++h) {
          I xv;
          Ops::load(xv, x + p * step + h * 2 * W);
          Ops::madd(acc[p][h], xv, wv[h]);
        }
      }
      // Pinned through a copy: pinning acc[p][h] itself keeps the array in
      // memory, and gcc then stores every accumulator on every tap pair;
      // unpinned, it copies each one to another register and back.
      for (int p = 0; p < Px; ++p) {
        for (int h = 0; h < Vecs; ++h) {
          I v = acc[p][h];
          Ops::pin(v);
          acc[p][h] = v;
        }
      }
    }
  }
  std::int64_t di[Px];
  for (int p = 0; p < Px; ++p) di[p] = o + p * d.g.c + ch;
  s8_epilogue<Ops>(d.epi, acc, ch, di);
}

/// Tier Ops's Vecs-vector steps over Px pixels from ch while they fit,
/// then at most one step of each smaller power of two; returns the first
/// channel left.
template <class Ops, int Px, int Vecs = 2>
IOB_GEMM_INLINE int dw_channels(const DwS8& d, const std::int16_t* px, std::int64_t o, int ch) {
  for (; ch + Vecs * Ops::kLanes <= d.g.c; ch += Vecs * Ops::kLanes) {
    dw_s8_step<Ops, Px, Vecs>(d, px, o, ch);
  }
  if constexpr (Vecs > 1) return dw_channels<Ops, Px, Vecs / 2>(d, px, o, ch);
  return ch;
}

/// Channels [ch, c) of one output pixel, one at a time in exact int32.
inline void dw_scalar(const DwS8& d, const std::int16_t* px, std::int64_t o, int ch) {
  const std::int64_t entry = d.entry();
  const int pairs = (d.g.k + 1) / 2;
  for (; ch < d.g.c; ++ch) {
    std::int32_t acc = 0;
    const std::int16_t* w = d.w16 + 2 * ch;
    for (int ky = 0; ky < d.g.k; ++ky) {
      const std::int16_t* x = px + ky * d.row() + 2 * ch;
      for (int j = 0; j < pairs; ++j, x += 2 * entry, w += entry) acc += x[0] * w[0] + x[1] * w[1];
    }
    epilogue_scalar(d.epi, acc, ch, o + ch);
  }
}

/// Output pixels [ox, ow) of one row, px and o at pixel ox: blocks of Px
/// pixels while they fit, then at most one block of each smaller power of
/// two. Per block, each tier's channel steps, widest first, then the
/// scalar remainder of each pixel.
template <int Px, class... Ops>
IOB_GEMM_INLINE void dw_row(Tiers<Ops...> t, const DwS8& d, const std::int16_t* px,
                            std::int64_t o, int ox) {
  const std::int64_t step = d.g.stride * d.entry();
  for (; ox + Px <= d.g.ow; ox += Px, px += Px * step, o += Px * d.g.c) {
    int ch = 0;
    ((ch = dw_channels<Ops, Px>(d, px, o, ch)), ...);
    for (int p = 0; p < Px; ++p) dw_scalar(d, px + p * step, o + p * d.g.c, ch);
  }
  if constexpr (Px > 1) dw_row<Px / 2>(t, d, px, o, ox);
}

/// The one int8 depthwise walk: the border of the tap-pair sample zeroed
/// once per call, then per sample each output row in blocks of up to four
/// pixels, each interior row built just before an output row first needs
/// it, so the steps read it while it is still in L1.
template <class... Ops>
IOB_GEMM_INLINE void s8_run(Tiers<Ops...> t, const DwS8& args) {
  // A local copy: no output store can alias it, so gcc keeps its fields in
  // registers across the epilogue's stores.
  const DwS8 d = args;
  const DwGeom& g = d.g;
  const Bordered b = bordered_geometry(g.ih, g.iw, g.c, g.k, g.k, g.stride, g.stride, g.pad_top,
                                       g.pad_left, g.oh, g.ow);
  const Bordered pb = dw_pair_border(b);
  zero_border(pb, d.pairs);
  const std::int64_t in_row = static_cast<std::int64_t>(g.iw) * g.c;
  const std::int64_t row = d.row();
  std::int64_t o = 0;
  for (int s = 0; s < g.batch; ++s) {
    const std::int8_t* ib = d.in + s * g.ih * in_row;
    int built = pb.cols > 0 ? 0 : b.rows;
    for (int oy = 0; oy < g.oh; ++oy, o += static_cast<std::int64_t>(g.ow) * g.c) {
      const int need = std::min(b.rows, oy * g.stride + g.k - b.pad_top);
      for (; built < need; ++built) {
        dw_pair_row(t, b, d.za, ib + built * in_row, d.pairs + (b.pad_top + built) * row);
      }
      dw_row<4>(t, d, d.pairs + oy * g.stride * row, o, 0);
    }
  }
}

#if IOB_GEMM_SSE2
using BaseTiers = Tiers<Sse2S8>;
#else
using BaseTiers = Tiers<>;
#endif

#if IOB_GEMM_DISPATCH
template <class Args>
IOB_AVX2 void s8_run_avx2(const Args& g) {
  s8_run(Tiers<Avx2S8, Sse2S8>{}, g);
}

template <class Args>
IOB_AVX512 void s8_run_avx512(const Args& g) {
  s8_run(Tiers<Avx512S8, Avx2S8, Sse2S8>{}, g);
}

template <class Args>
IOB_AVX512_VNNI void s8_run_vnni(const Args& g) {
  s8_run(Tiers<Avx512VnniS8, Avx2S8, Sse2S8>{}, g);
}
#endif

/// Run an int8 kernel from the widest tier the host and the dispatch cap
/// allow.
template <class Args>
void s8_dispatch(const Args& g) {
#if IOB_GEMM_DISPATCH
  if (cpu_has_avx512_vnni()) return s8_run_vnni(g);
  if (cpu_has_avx512()) return s8_run_avx512(g);
  if (cpu_has_avx2()) return s8_run_avx2(g);
#endif
  s8_run(BaseTiers{}, g);
}

#if IOB_GEMM_DISPATCH && defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

/// Check the int8 GEMM preconditions, then run it.
void gemm_s8_checked(const S8Gemm& g) {
  IOB_EXPECTS(g.M >= 0 && g.N > 0 && g.K > 0, "gemm dims must be positive");
  // |a - za| and |w - zw| are <= 255, so a K-term dot product is bounded by
  // K * 255^2; K < 2^15 keeps it inside int32 with margin.
  IOB_EXPECTS(g.K < (std::int64_t{1} << 15), "int8 gemm K out of exact int32 range");
  IOB_EXPECTS(g.epi == nullptr || ((g.epi->dst != nullptr) != (g.epi->dstf != nullptr)),
              "quant epilogue needs exactly one target");
  IOB_EXPECTS(g.epi == nullptr || g.epi->col_scales != nullptr,
              "quant epilogue needs per-column scales");
  s8_dispatch(g);
}

}  // namespace

void set_dispatch_cap(int cap) {
  g_dispatch_cap.store(cap < 0 ? std::numeric_limits<int>::max() : cap,
                       std::memory_order_relaxed);
}

void gemm_s8(std::int64_t M, std::int64_t N, std::int64_t K, const std::int8_t* A,
             std::int32_t za, const std::int16_t* bop, std::int32_t* C,
             const QuantEpilogue* epi) {
  gemm_s8_checked({M, N, K, A, za, nullptr, bop, C, epi});
}

void gemm_s8_pa(std::int64_t M, std::int64_t N, std::int64_t K, const std::int32_t* Ap,
                const std::int16_t* bop, std::int32_t* C, const QuantEpilogue* epi) {
  gemm_s8_checked({M, N, K, nullptr, 0, reinterpret_cast<const std::int16_t*>(Ap), bop, C, epi});
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

void im2col_pack_a_s8_nhwc(int batch, int ih, int iw, int ic, int kh, int kw, int sh, int sw,
                           int pad_top, int pad_left, int oh, int ow, std::int8_t zero_point,
                           const std::int8_t* in, std::int16_t* bordered, std::int32_t* pack) {
  const Bordered g = bordered_geometry(ih, iw, ic, kh, kw, sh, sw, pad_top, pad_left, oh, ow);
  const std::int64_t sample_elems = static_cast<std::int64_t>(ih) * iw * ic;
  const std::int64_t kp_count = (static_cast<std::int64_t>(kh) * kw * ic + 1) / 2;
  const std::int64_t interior = static_cast<std::int64_t>(g.cols) * ic;
  // A pad tap's staged value is the zero point, so its widened value, and
  // the border, is 0.
  zero_border(g, bordered);
  for (int s = 0; s < batch; ++s) {
    const std::int8_t* ib = in + s * sample_elems;
    std::int16_t* line =
        bordered + g.pad_top * g.row_elems() + static_cast<std::int64_t>(g.pad_left) * ic;
    for (int r = 0; r < g.rows; ++r, line += g.row_elems()) {
      widen_sub_s16(line, ib + static_cast<std::int64_t>(r) * iw * ic, interior, zero_point);
    }
    // Row r's pairs are contiguous int16 within its panel slot.
    gather_patches(g, kh, kw, sh, sw, oh, ow, static_cast<const std::int16_t*>(bordered),
                   static_cast<std::int64_t>(s) * oh * ow, [&](std::int64_t r) {
                     return reinterpret_cast<std::int16_t*>(pack + (r / kMr) * (kMr * kp_count) +
                                                            (r % kMr) * kp_count);
                   });
  }
}

std::int64_t dw_weight_s8_elems(int k, std::int64_t c) {
  return 2 * static_cast<std::int64_t>(k) * ((k + 1) / 2) * c;
}

void widen_dw_weights_s8(const std::int8_t* w, int k, std::int64_t c, const std::int32_t* zw,
                         std::int16_t* dst) {
  for (int ky = 0; ky < k; ++ky) {
    for (int kx = 0; kx < k; kx += 2, dst += 2 * c) {
      const std::int8_t* left = w + (static_cast<std::int64_t>(ky) * k + kx) * c;
      for (std::int64_t ch = 0; ch < c; ++ch) {
        dst[2 * ch] = static_cast<std::int16_t>(left[ch] - zw[ch]);
        dst[2 * ch + 1] =
            kx + 1 < k ? static_cast<std::int16_t>(left[c + ch] - zw[ch]) : std::int16_t{0};
      }
    }
  }
}

std::int64_t dw_pair_sample_elems(int c, int k, int stride, int oh, int ow) {
  return 2 * bordered_sample_elems(c, k, k, stride, stride, oh, ow);
}

void dwconv2d_s8(int batch, int ih, int iw, int c, int k, int stride, int pad_top, int pad_left,
                 int oh, int ow, const std::int8_t* in, std::int32_t za, std::int16_t* pairs,
                 const std::int16_t* w16, const float* bias, const float* col_scales,
                 float relu_cap, float out_scale, std::int32_t out_zero, std::int8_t* out,
                 float* outf) {
  IOB_EXPECTS((out != nullptr) != (outf != nullptr), "dwconv2d_s8 needs exactly one output");
  const float inv = out != nullptr ? 1.0f / out_scale : 0.0f;
  const QuantEpilogue epi{bias, col_scales, relu_cap, inv, out_zero, out, outf};
  s8_dispatch(
      DwS8{{batch, ih, iw, c, k, stride, pad_top, pad_left, oh, ow}, in, za, pairs, w16, epi});
}

}  // namespace iob::nn
