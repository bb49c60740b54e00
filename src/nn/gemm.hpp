#pragma once
/// \file gemm.hpp
/// The lowered compute kernels behind the allocation-free inference engine:
/// a cache-blocked, register-tiled float GEMM plus the im2col patch
/// extractor that lowers convolutions onto it, and a direct depthwise kernel
/// that holds a block of channels per output pixel in vector registers
/// (depthwise is a diagonal GEMM; running it dense would waste k*k*C MACs
/// per output position).
///
/// Bit-exactness contract: every kernel accumulates each output element in
/// strictly increasing k order, starting from the bias, with one `acc +=
/// a * b` per term — the exact per-element operation sequence of the seed
/// nested loops (`Layer::forward_reference`). Padding taps enter the GEMM
/// as zero patch entries; `x + a*0` leaves the accumulator value unchanged,
/// so lowered results equal the seed results bitwise.

#include <cstdint>

namespace iob::nn {

/// Register-tile dims of the base (SSE2) f32 GEMM tile: kMr x kNr
/// accumulators live in registers across the k loop (8 xmm registers). The
/// AVX f32 tile runs kMr x 16 (8 ymm registers) and the AVX-512F tile kMr x
/// 32 (8 zmm registers); the int8 tiles run kMr rows by one or two vectors
/// of 4 or 8 int32 lanes (SSE2, AVX2) and by one to four vectors of 16
/// (AVX-512BW and VNNI: kMr x 64 while 64 columns remain).
/// The tile width never changes an f32 result: every lane still does the
/// bias, then one rounded mul and one rounded add per k, in increasing k,
/// and FMA contraction is pinned off.
inline constexpr int kMr = 4;
inline constexpr int kNr = 8;
/// K cache block: one A panel row-block (kMr x kKc) plus the streamed B
/// rows stay L1/L2-resident while a C tile accumulates.
inline constexpr std::int64_t kKc = 256;

/// Transpose a [rows][cols] row-major weight matrix into the K-major
/// [cols][rows] layout `gemm_blocked` streams as B (dst[c * rows + r] =
/// src[r * cols + c]). The one packing rule every lowered layer shares:
/// term k of output r stays input k, preserving seed accumulation order.
void pack_k_major(const float* src, std::int64_t rows, std::int64_t cols, float* dst);

/// Relu tail fused into the GEMM epilogue: applied to each C element on the
/// final K block, while the accumulator tile is still in registers, so a
/// fused producer+relu pair skips one workspace ping-pong hop. The operation
/// is the exact per-element expression of `Relu::forward_into`, so fused
/// results stay bit-exact vs running the relu as its own layer pass.
struct GemmTail {
  enum class Kind { kNone, kRelu };
  Kind kind = Kind::kNone;
  float cap = 0.0f;  ///< relu clamp (<= 0 = uncapped)
};

/// C[M x N] = bias (broadcast per column, nullptr = 0) + A[M x K] * B[K x N],
/// optionally followed by a fused relu `tail`.
/// All matrices row-major and contiguous. Accumulation per C element runs
/// in increasing k order (K blocks processed in order, the partial sum
/// parked in C between blocks), so results are bit-exact vs the naive
/// `for k: acc += A[m][k] * B[k][n]` loop (with the tail applied after).
void gemm_blocked(std::int64_t M, std::int64_t N, std::int64_t K, const float* A, const float* B,
                  const float* bias, float* C, const GemmTail& tail = {});

/// Elements of the zero-bordered sample both conv patch extractors gather
/// from: the ((oh - 1) * sh + kh) x ((ow - 1) * sw + kw) pixels of ic
/// channels that the output windows cover, padding included.
[[nodiscard]] std::int64_t bordered_sample_elems(int ic, int kh, int kw, int sh, int sw, int oh,
                                                 int ow);

/// Extract NHWC conv patches into `col` ([batch * oh * ow] rows of
/// kh * kw * ic floats, taps in (ky, kx, ic) order). Each sample is first
/// copied, values unchanged, into `bordered` (`bordered_sample_elems`
/// floats, the `Workspace::bordered` arena) inside a border of 0.0f that
/// is zeroed once per call; each patch row is then kh straight copies of
/// kw * ic floats, so an out-of-range tap reads the border's 0.0f.
/// Conv1D lowers through the same extractor with kh = 1, oh = 1 (an LC
/// signal is a 1xLxC image).
void im2col_nhwc(int batch, int ih, int iw, int ic, int kh, int kw, int sh, int sw, int pad_top,
                 int pad_left, int oh, int ow, const float* in, float* bordered, float* col);

/// Test hook: cap the kernel dispatch tier of both precisions — 0 = SSE2
/// only, 1 = + the AVX f32 kernels and the AVX2 int8 kernels, 2 = + the
/// AVX-512F f32 GEMM tile and the AVX-512BW int8 kernels (one predicate:
/// the host needs AVX-512F and AVX-512BW), 3 = + the AVX-512 VNNI int8
/// kernels (f32 runs as at 2); a tier the host lacks stays off whatever
/// the cap. Negative (the default) restores full auto-dispatch.
/// Exists so one wide-ISA machine can assert every tier produces
/// bit-identical results (tests/nn_engine_test.cpp, tests/nn_int8_test.cpp)
/// and time two tiers side by side (bench_nn_infer); production code never
/// calls it.
void set_dispatch_cap(int cap);

/// Depthwise 2-D convolution over NHWC input with weights repacked to
/// [ky * k + kx][c] (channel-major per tap), optionally followed by a fused
/// relu `tail`. Per output pixel, a block of channels (8 vectors of the
/// widest f32 tier while they fit, then at most one block of 4, 2 and 1
/// vectors, then a scalar remainder) stays in registers: it starts from the
/// bias, does one rounded mul and one rounded add per in-range tap in
/// (ky, kx) order, and is stored once.
/// Out-of-range taps are skipped, so every lane matches the seed loop
/// tap-for-tap, at every tier.
void dwconv2d_nhwc(int batch, int ih, int iw, int c, int k, int stride, int pad_top, int pad_left,
                   int oh, int ow, const float* in, const float* wpacked, const float* bias,
                   float* out, const GemmTail& tail = {});

// ---- int8 execution path ----------------------------------------------------
//
// The quantized counterparts of the kernels above. Activations are affine
// int8 (real = s * (q - z)); weights are per-output-channel affine int8.
// The GEMM accumulates int8 x int8 products in int32 exactly (integer
// arithmetic: the scalar, SSE2, AVX2, AVX-512BW and AVX-512 VNNI paths are
// bit-identical by construction), and an epilogue requantizes the int32
// accumulator to the next layer's int8 scale — or dequantizes to f32 at
// the network's float tail.

/// Deterministic round-half-away-from-zero float -> int. The one rounding
/// rule every int8 kernel and the load-time quantizer share.
[[nodiscard]] inline std::int32_t round_away(float v) {
  return static_cast<std::int32_t>(v >= 0.0f ? v + 0.5f : v - 0.5f);
}

/// The one requantize scalar every int8 kernel shares: q =
/// clamp(round_away(v * inv_out_scale) + out_zero, -128, 127). The SIMD
/// epilogues implement exactly this per lane (their saturating packs are
/// the clamp), so a change here is a change to the whole int8 path.
[[nodiscard]] inline std::int8_t requantize_value(float v, float inv_out_scale,
                                                  std::int32_t out_zero) {
  const std::int32_t q = round_away(v * inv_out_scale) + out_zero;
  return static_cast<std::int8_t>(q < -128 ? -128 : q > 127 ? 127 : q);
}

/// Pack a K-major int8 weight matrix [K][N] (quantized values `b`,
/// per-column zero points `zw[N]` — per-output-channel affine weights) into
/// the k-pair-interleaved, zero-point-subtracted int16 operand the int8
/// GEMM streams: dst[(kp * N + n) * 2 + r] = b[2 kp + r][n] - zw[n] (0 when
/// 2 kp + r >= K — a zero pad pair contributes nothing to the dot product).
/// ceil(K / 2) pairs; dst holds ceil(K / 2) * N * 2 int16. The layout feeds
/// pmaddwd directly: one 8 x int16 load covers four columns' (k, k+1) pairs.
void pack_b_s8(const std::int8_t* b, std::int64_t K, std::int64_t N, const std::int32_t* zw,
               std::int16_t* dst);

/// Fused quantized epilogue for `gemm_s8`, applied per element on the final
/// K block, to each 4-row strip of int32 sums as soon as the strip is
/// done (still in L1): real = bias[n] + col_scales[n] * acc, optional
/// relu clamp, then either requantize to int8 (`dst`) or store f32
/// (`dstf`) — exactly one target must be set. Bit-identical to running the
/// standalone `requantize_s8` / `dequantize_f32` over the int32 result
/// (tests assert it): every tier's lane ops and the scalar expressions are
/// the same IEEE operations, and the saturating narrowing equals the scalar
/// clamp.
struct QuantEpilogue {
  const float* bias = nullptr;  ///< per-column bias [N] (nullptr = 0)
  /// Per-column dequant scales [N] (s_in * s_w[n], the per-output-channel
  /// weight quantization scheme); required.
  const float* col_scales = nullptr;
  float relu_cap = -1.0f;       ///< fused relu: < 0 none, 0 uncapped, > 0 clamp
  float inv_out_scale = 1.0f;   ///< 1 / output scale (requant mode)
  std::int32_t out_zero = 0;    ///< output zero point (requant mode)
  std::int8_t* dst = nullptr;   ///< int8 target [M x N]
  float* dstf = nullptr;        ///< f32 target [M x N] (the network's float tail)
};

/// C[M x N] (int32) = sum_k (A[m][k] - za) * Bop[k][n], with A row-major
/// int8 and Bop the `pack_b_s8` operand (already zero-point-subtracted).
/// Exact integer arithmetic: requires K < 2^15 and |a - za|, |w - zw| <=
/// 255, so every partial sum fits int32 with margin. With a non-null `epi`
/// the epilogue result goes to `epi->dst`/`dstf`; C is then the scratch
/// the int32 sums pass through (M x N int32s, contents unspecified).
void gemm_s8(std::int64_t M, std::int64_t N, std::int64_t K, const std::int8_t* A,
             std::int32_t za, const std::int16_t* bop, std::int32_t* C,
             const QuantEpilogue* epi = nullptr);

/// Requantize an int32 GEMM/conv accumulator to int8: real = bias[n] +
/// scale * acc (scale = s_in * s_w; bias nullptr = 0), optional fused relu
/// (relu_cap < 0: none, 0: uncapped, > 0: clamp), then q = clamp(
/// round_away(real / out_scale) + out_zero, -128, 127).
void requantize_s8(const std::int32_t* acc, std::int64_t M, std::int64_t N, const float* bias,
                   float scale, float relu_cap, float out_scale, std::int32_t out_zero,
                   std::int8_t* dst);

/// Same affine epilogue, writing dequantized f32 instead (the last weighted
/// op of a quantized network hands float logits to its float tail).
void dequantize_f32(const std::int32_t* acc, std::int64_t M, std::int64_t N, const float* bias,
                    float scale, float relu_cap, float* dst);

/// f32 -> int8 activation staging: q = clamp(round_away(v / scale) +
/// zero_point, -128, 127), vectorized (the quantized engine's input hop).
void quantize_f32_to_s8(const float* src, std::int64_t n, float scale, std::int32_t zero_point,
                        std::int8_t* dst);

/// Fused int8 im2col + A-panel pack, the patch extractor of every
/// non-pointwise int8 conv: the gather of `im2col_nhwc` emitting,
/// whole-matrix, the zero-point-subtracted pair-merged operand `gemm_s8`
/// otherwise builds per tile (`pack_a_tile_s8`) — so `gemm_s8_pa` skips the
/// per-tile pack entirely, the dominant overhead at small K. Each sample is
/// widened once to value - zero_point int16 into `bordered`
/// (`bordered_sample_elems` int16, the `Workspace::bordered_s16` arena)
/// inside a border of 0, which is what a pad tap widens to (the pad fill is
/// the zero point); patch rows are then copied out of it as in
/// `im2col_nhwc`. Panel layout in int32 pair units (kp = ceil(K / 2)):
/// pack[(r / kMr) * kMr * kp + (r % kMr) * kp + j] holds patch row r's
/// k-pair j as two int16. An odd K leaves the last
/// pair's high int16 unwritten: `pack_b_s8` zeroes the matching B half, so
/// whatever it holds multiplies by 0. `pack` must hold
/// ceil(M / kMr) * kMr * kp int32s; tail-panel rows beyond M are never
/// written (and never read).
void im2col_pack_a_s8_nhwc(int batch, int ih, int iw, int ic, int kh, int kw, int sh, int sw,
                           int pad_top, int pad_left, int oh, int ow, std::int8_t zero_point,
                           const std::int8_t* in, std::int16_t* bordered, std::int32_t* pack);

/// `gemm_s8` over a pre-packed A (`im2col_pack_a_s8_nhwc` layout): the
/// microkernels stream the panels directly instead of re-packing an A tile
/// per K block. Identical exact integer arithmetic -> bit-identical output.
void gemm_s8_pa(std::int64_t M, std::int64_t N, std::int64_t K, const std::int32_t* Ap,
                const std::int16_t* bop, std::int32_t* C, const QuantEpilogue* epi = nullptr);

/// Int16 elements of the `widen_dw_weights_s8` operand: k rows of
/// ceil(k / 2) tap-pair entries of 2 * c int16.
[[nodiscard]] std::int64_t dw_weight_s8_elems(int k, std::int64_t c);

/// Widen a tap-major int8 depthwise weight matrix ([t][c] with t = ky * k +
/// kx, per-channel zero points `zw[c]`) into the zero-point-subtracted int16
/// operand `dwconv2d_s8` streams. Kernel row ky gets ceil(k / 2) tap-pair
/// entries; entry (ky, j) holds, per channel in channel order, the pair
/// (w[ky][2j][ch] - zw[ch], w[ky][2j + 1][ch] - zw[ch]), 0 past the end of
/// the row: dst[((ky * ceil(k / 2) + j) * c + ch) * 2 + r]. One pmaddwd of an
/// entry against the matching tap-pair sample entry sums both taps.
/// dst holds `dw_weight_s8_elems(k, c)` int16.
void widen_dw_weights_s8(const std::int8_t* w, int k, std::int64_t c, const std::int32_t* zw,
                         std::int16_t* dst);

/// Int16 elements of the one-sample tap-pair sample `dwconv2d_s8` builds
/// (the `Workspace::dw_pairs_s16` arena): two per element of the
/// zero-bordered sample (`bordered_sample_elems` with kh = kw = k).
[[nodiscard]] std::int64_t dw_pair_sample_elems(int c, int k, int stride, int oh, int ow);

/// Direct int8 depthwise 2-D convolution. Each sample is widened once into
/// `pairs` (`dw_pair_sample_elems` int16), the tap-pair sample: the
/// zero-bordered window the output windows cover, whose entry (y, x) holds,
/// per channel, the pair (in[y][x] - za, in[y][x + 1] - za), with 0 for a
/// pixel in the border. The border is rewritten on every call. Per output
/// pixel and block of channels, every kernel row then runs one pmaddwd per
/// tap pair and vector against the `widen_dw_weights_s8` operand, in exact
/// int32: a border pixel or a zero weight adds exactly 0, so no tap range
/// is checked. Then the same fused epilogue as the GEMM with per-channel
/// dequant scales `col_scales[c]` — requantize to int8 (`out`) or
/// dequantize to f32 (`outf`); exactly one must be non-null.
void dwconv2d_s8(int batch, int ih, int iw, int c, int k, int stride, int pad_top, int pad_left,
                 int oh, int ow, const std::int8_t* in, std::int32_t za, std::int16_t* pairs,
                 const std::int16_t* w16, const float* bias, const float* col_scales,
                 float relu_cap, float out_scale, std::int32_t out_zero, std::int8_t* out,
                 float* outf);

}  // namespace iob::nn
