// Tests for the int8 quantized execution path (ISSUE 5): quantization
// round-trip error against `quant_error_bound`, the int8 GEMM against a
// naive int32 reference on edge shapes (every dispatch tier shares exact
// integer arithmetic), the conv lowering (panel pack + GEMM) against a naive
// int32 conv on every zoo conv shape, the 1 x L Conv1D lowering against
// the L x 1 patch walk and against the equivalent 1 x k Conv2D (f32 and
// int8), the int8 GlobalAvgPool against naive channel sums, the fused
// quantize/dequantize epilogue against the standalone helpers, zoo-model
// accuracy bounds and top-1 agreement with the f32 oracle, batch
// invariance, the interposer-verified zero-allocation steady state,
// precision-aware hub sessions (analytic + execute-and-meter), and 1/2/8-
// thread fleet-CSV determinism with the precision axis enabled.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "comm/wir_link.hpp"
#include "common/alloc_interposer.hpp"  // defines global operator new/delete
#include "core/fleet.hpp"
#include "core/sweep_runner.hpp"
#include "net/network_sim.hpp"
#include "nn/conv.hpp"
#include "nn/gemm.hpp"
#include "nn/layers.hpp"
#include "nn/model_zoo.hpp"
#include "nn/precision.hpp"
#include "nn/qmodel.hpp"
#include "nn/quantize.hpp"
#include "nn/tensor.hpp"
#include "nn/workspace.hpp"
#include "partition/partitioner.hpp"

namespace iob {
namespace {

std::atomic<std::uint64_t>& g_alloc_count = iob::alloc_interposer::new_calls;

using namespace iob::nn;

Model zoo_model(int idx) {
  return idx == 0 ? make_kws_dscnn() : idx == 1 ? make_ecg_cnn1d() : make_vww_micronet();
}

int argmax(const float* d, std::int64_t n) {
  int best = 0;
  for (std::int64_t i = 1; i < n; ++i) {
    if (d[i] > d[best]) best = static_cast<int>(i);
  }
  return best;
}

// ---- quantize.hpp round-trip property ---------------------------------------

TEST(QuantizeProperty, RoundTripErrorWithinBoundAcrossRandomTensors) {
  for (int salt = 0; salt < 24; ++salt) {
    Tensor t = patterned_tensor(Shape{7, 11}, salt);
    // Vary the dynamic range across salts (asymmetric, tiny, large).
    const float stretch = 0.01f + 37.5f * static_cast<float>(salt) / 24.0f;
    const float offset = (salt % 3 == 0 ? 2.0f : salt % 3 == 1 ? -0.5f : 0.0f);
    for (std::int64_t i = 0; i < t.size(); ++i) t[i] = t[i] * stretch + offset;

    const QuantizedTensor q = quantize(t);
    const Tensor back = dequantize(q);
    const double bound = quant_error_bound(q.params);
    EXPECT_GT(bound, 0.0);
    for (std::int64_t i = 0; i < t.size(); ++i) {
      EXPECT_LE(std::abs(static_cast<double>(t[i]) - back[i]), bound + 1e-7)
          << "salt " << salt << " elem " << i;
    }
  }
}

TEST(QuantizeProperty, StagingQuantizerMatchesQuantize) {
  // Same round-half-away rule; the staging kernel multiplies by the
  // reciprocal where quantize() divides, which may legitimately differ by
  // one step exactly at half-way ties — never more.
  const Tensor t = patterned_tensor(Shape{333}, 5);
  const QuantizedTensor q = quantize(t);
  std::vector<std::int8_t> staged(static_cast<std::size_t>(t.size()));
  quantize_f32_to_s8(t.data(), t.size(), q.params.scale, q.params.zero_point, staged.data());
  for (std::int64_t i = 0; i < t.size(); ++i) {
    EXPECT_LE(std::abs(static_cast<int>(staged[static_cast<std::size_t>(i)]) -
                       static_cast<int>(q.data[static_cast<std::size_t>(i)])),
              1)
        << "elem " << i;
  }
}

// ---- int8 GEMM vs naive int32 reference -------------------------------------

/// Naive reference over the raw quantized operands (row-major A with zero
/// point za, K-major B with per-column zero points).
void naive_gemm_s8(std::int64_t M, std::int64_t N, std::int64_t K, const std::int8_t* A,
                   std::int32_t za, const std::int8_t* Bkm, const std::int32_t* zw,
                   std::int32_t* C) {
  for (std::int64_t m = 0; m < M; ++m) {
    for (std::int64_t n = 0; n < N; ++n) {
      std::int32_t acc = 0;
      for (std::int64_t k = 0; k < K; ++k) {
        acc += (A[m * K + k] - za) * (Bkm[k * N + n] - zw[n]);
      }
      C[m * N + n] = acc;
    }
  }
}

/// The bordered-sample arena of one patch-extractor call, filled with junk
/// as a reused `Workspace` arena is, so a border the call fails to zero
/// shows.
template <class T>
std::vector<T> junk_bordered(int ic, int kh, int kw, int sh, int sw, int oh, int ow, T junk) {
  const std::int64_t elems = bordered_sample_elems(ic, kh, kw, sh, sw, oh, ow);
  return std::vector<T>(static_cast<std::size_t>(elems), junk);
}

/// A row-major M x K int8 matrix in the `gemm_s8_pa` panel layout: a 1x1
/// conv over an M x 1 image with K channels.
std::vector<std::int32_t> pack_rows_s8(std::int64_t M, std::int64_t K, const std::int8_t* A,
                                       std::int32_t za) {
  const std::int64_t panels = (M + kMr - 1) / kMr;
  std::vector<std::int32_t> pack(static_cast<std::size_t>(panels * kMr * ((K + 1) / 2)));
  std::vector<std::int16_t> border = junk_bordered<std::int16_t>(
      static_cast<int>(K), 1, 1, 1, 1, static_cast<int>(M), 1, 0x5a5a);
  im2col_pack_a_s8_nhwc(1, static_cast<int>(M), 1, static_cast<int>(K), 1, 1, 1, 1, 0, 0,
                        static_cast<int>(M), 1, static_cast<std::int8_t>(za), A, border.data(),
                        pack.data());
  return pack;
}

/// Restores full auto-dispatch however a tier test exits (an ASSERT returns early).
struct DispatchCapGuard {
  ~DispatchCapGuard() { set_dispatch_cap(-1); }
};

/// Log the widest int8 tier this host runs, which the top caps of a tier
/// sweep (3 and auto) reach: a host without AVX-512 VNNI says so, instead
/// of passing on a lower tier silently. A build without SSE2 runs the
/// scalar kernels only.
void log_highest_int8_tier() {
#if !defined(__SSE2__)
  const char* tier = "scalar (no SSE2)";
#elif defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  const bool avx512 = __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw");
  const char* tier = avx512 && __builtin_cpu_supports("avx512vnni") ? "3 (AVX-512 VNNI)"
                     : avx512                                       ? "2 (AVX-512BW)"
                     : __builtin_cpu_supports("avx2")               ? "1 (AVX2)"
                                                                    : "0 (SSE2)";
#else
  const char* tier = "0 (SSE2)";
#endif
  std::printf("[ info     ] highest int8 tier run on this host: %s\n", tier);
}

template <class T>
void append_bytes(std::vector<unsigned char>& out, const std::vector<T>& v) {
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  out.insert(out.end(), p, p + v.size() * sizeof(T));
}

TEST(GemmS8, MatchesNaiveInt32AcrossEdgeShapes) {
  // Shapes straddle every dispatch tier and remainder: scalar-only (N < 4),
  // SSE2 tiles, AVX2 (N = 16+), AVX-512 (N = 32+), odd K (pair padding),
  // M remainders, K spanning multiple 256-element blocks.
  const struct {
    std::int64_t M, N, K;
  } cases[] = {{5, 3, 7},    {8, 8, 16},   {9, 16, 27},  {4, 32, 31},  {13, 40, 64},
               {7, 64, 129}, {3, 48, 300}, {1, 33, 513}, {6, 17, 255}, {2, 128, 600}};
  for (const auto& c : cases) {
    std::vector<std::int8_t> A(static_cast<std::size_t>(c.M * c.K));
    std::vector<std::int8_t> B(static_cast<std::size_t>(c.K * c.N));
    std::vector<std::int32_t> zw(static_cast<std::size_t>(c.N));
    for (std::size_t i = 0; i < A.size(); ++i) {
      A[i] = static_cast<std::int8_t>((static_cast<int>(i) * 37 + 11) % 251 - 125);
    }
    for (std::size_t i = 0; i < B.size(); ++i) {
      B[i] = static_cast<std::int8_t>((static_cast<int>(i) * 53 + 7) % 249 - 124);
    }
    for (std::size_t i = 0; i < zw.size(); ++i) zw[i] = static_cast<std::int32_t>(i % 11) - 5;
    const std::int32_t za = -3;

    std::vector<std::int16_t> bop(static_cast<std::size_t>(((c.K + 1) / 2) * c.N * 2));
    pack_b_s8(B.data(), c.K, c.N, zw.data(), bop.data());
    std::vector<std::int32_t> got(static_cast<std::size_t>(c.M * c.N));
    std::vector<std::int32_t> got_pa(static_cast<std::size_t>(c.M * c.N));
    std::vector<std::int32_t> ref(static_cast<std::size_t>(c.M * c.N));
    gemm_s8(c.M, c.N, c.K, A.data(), za, bop.data(), got.data());
    const std::vector<std::int32_t> pack = pack_rows_s8(c.M, c.K, A.data(), za);
    gemm_s8_pa(c.M, c.N, c.K, pack.data(), bop.data(), got_pa.data());
    naive_gemm_s8(c.M, c.N, c.K, A.data(), za, B.data(), zw.data(), ref.data());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ref[i], got[i]) << "M=" << c.M << " N=" << c.N << " K=" << c.K << " i=" << i;
      ASSERT_EQ(ref[i], got_pa[i]) << "_pa M=" << c.M << " N=" << c.N << " K=" << c.K
                                   << " i=" << i;
    }
  }
}

TEST(GemmS8, DispatchTiersBitIdenticalUnderForcedCaps) {
  // Cap 0 runs the SSE2 tiles, 1 adds AVX2, 2 adds AVX-512BW, 3 swaps in
  // AVX-512 VNNI, -1 is auto; a tier the host lacks stays off. The
  // AVX-512 tiers run 64-column tiles, then at most one 32- and one
  // 16-column tile: N = 16 is one 16-column tile, 48 a 32- plus a 16-column
  // tile, 72 a 64-column tile plus an 8-column AVX2 tile, 112 chains 64,
  // 32 and 16, and 35 leaves a scalar edge; K = 300 crosses the 256-term K
  // block. Every output mode runs through both A sources and must match
  // cap 0 byte for byte.
  log_highest_int8_tier();
  DispatchCapGuard guard;
  const std::int64_t M = 11;
  const std::int32_t za = 2;
  for (const std::int64_t N : {16, 48, 72, 112, 35}) {
    for (const std::int64_t K : {31, 129, 300}) {
      std::vector<std::int8_t> A(static_cast<std::size_t>(M * K));
      std::vector<std::int8_t> B(static_cast<std::size_t>(K * N));
      std::vector<std::int32_t> zw(static_cast<std::size_t>(N));
      std::vector<float> bias(static_cast<std::size_t>(N));
      std::vector<float> scales(static_cast<std::size_t>(N));
      for (std::size_t i = 0; i < A.size(); ++i) {
        A[i] = static_cast<std::int8_t>((static_cast<int>(i) * 29 + 3) % 255 - 127);
      }
      for (std::size_t i = 0; i < B.size(); ++i) {
        B[i] = static_cast<std::int8_t>((static_cast<int>(i) * 43 + 17) % 253 - 126);
      }
      for (std::size_t i = 0; i < zw.size(); ++i) {
        zw[i] = static_cast<std::int32_t>(i % 7) - 3;
        bias[i] = 0.011f * static_cast<float>(i) - 0.2f;
        scales[i] = 0.0009f + 0.00007f * static_cast<float>(i);
      }
      std::vector<std::int16_t> bop(static_cast<std::size_t>(((K + 1) / 2) * N * 2));
      pack_b_s8(B.data(), K, N, zw.data(), bop.data());
      const std::vector<std::int32_t> pack = pack_rows_s8(M, K, A.data(), za);

      for (const bool panels : {false, true}) {
        const auto run = [&](std::int32_t* C, const QuantEpilogue* epi) {
          if (panels) {
            gemm_s8_pa(M, N, K, pack.data(), bop.data(), C, epi);
          } else {
            gemm_s8(M, N, K, A.data(), za, bop.data(), C, epi);
          }
        };
        std::vector<std::vector<unsigned char>> out;
        for (const int cap : {0, 1, 2, 3, -1}) {
          set_dispatch_cap(cap);
          out.emplace_back();
          std::vector<std::int32_t> raw(static_cast<std::size_t>(M * N));
          run(raw.data(), nullptr);
          append_bytes(out.back(), raw);
          const std::vector<float> flat_scales(static_cast<std::size_t>(N), 0.002f);
          for (const float relu_cap : {-1.0f, 0.0f, 6.0f}) {
            std::vector<std::int32_t> scratch(static_cast<std::size_t>(M * N));
            QuantEpilogue epi;
            epi.col_scales = flat_scales.data();
            epi.relu_cap = relu_cap;
            epi.inv_out_scale = 25.0f;
            epi.out_zero = -5;
            std::vector<std::int8_t> q(static_cast<std::size_t>(M * N));
            epi.dst = q.data();
            run(scratch.data(), &epi);  // bias null, one scale in every column
            append_bytes(out.back(), q);
            epi.bias = bias.data();
            epi.col_scales = scales.data();
            run(scratch.data(), &epi);
            append_bytes(out.back(), q);
            std::vector<float> f(static_cast<std::size_t>(M * N));
            epi.dst = nullptr;
            epi.dstf = f.data();
            run(scratch.data(), &epi);
            append_bytes(out.back(), f);
          }
        }
        for (std::size_t t = 1; t < out.size(); ++t) {
          EXPECT_TRUE(out[0] == out[t]) << "N=" << N << " K=" << K << " panels=" << panels
                                        << " tier cap index " << t;
        }
      }
    }
  }
}

/// Junk for the int8 depthwise tap-pair arena, written before every call:
/// a border entry the kernel does not rewrite adds junk * weight to a sum.
/// `next_pair_junk` changes it from call to call, so such a sum also
/// differs between the tiers of a tier sweep.
constexpr std::int16_t kPairJunk = 0x5a5a;
std::int16_t next_pair_junk(std::int16_t junk) { return static_cast<std::int16_t>(junk + 0x0101); }

TEST(DwConvS8, DispatchTiersBitIdenticalUnderForcedCaps) {
  // Channel steps are 2 and 1 vectors of 4 (SSE2), 8 (AVX2) and 16
  // (AVX-512BW and VNNI, caps 2 and 3) channels, widest tier first, then a
  // scalar remainder, over blocks of 4, 2 and 1 output pixels of a row: c =
  // 19 leaves a remainder after every width, 48 is a 32- plus a 16-channel
  // step on AVX-512 and 64, 128 and 256 whole 32-channel steps; rows of 6,
  // 5 and 3 pixels leave blocks of 2 and 1. The first two geometries are
  // synthetic; the second (k = 5, stride 2, pads 1 top and 2 left, output
  // running past the bottom-right edge) gives outputs with partial and with
  // empty tap windows. Then the zoo's own depthwise shapes: KWS's 25x5x64 (k 3,
  // stride 1) and VWW's stride-2 SAME layers, whose padding is 0 at the top
  // and left and 1 at the bottom and right, each also at c = 19. Both
  // outputs: requantized int8 and dequantized f32. The tap-pair arena is
  // filled with new junk before every call.
  log_highest_int8_tier();
  DispatchCapGuard guard;
  struct Geom {
    int ih, iw, k, stride, pad_top, pad_left, oh, ow;
  };
  struct Case {
    Geom g;
    int c;
  };
  std::vector<Case> cases;
  for (const Geom g : {Geom{7, 6, 3, 1, 1, 1, 7, 6}, Geom{7, 6, 5, 2, 1, 2, 4, 5}}) {
    for (const int c : {8, 16, 19, 48, 64, 128, 256}) cases.push_back({g, c});
  }
  const Case zoo[] = {{{25, 5, 3, 1, 1, 1, 25, 5}, 64},   // KWS, all four blocks
                      {{48, 48, 3, 2, 0, 0, 24, 24}, 16},  // VWW block 1
                      {{24, 24, 3, 2, 0, 0, 12, 12}, 32},  // VWW block 2
                      {{12, 12, 3, 2, 0, 0, 6, 6}, 128},   // VWW block 4
                      {{6, 6, 3, 2, 0, 0, 3, 3}, 128}};    // VWW block 5
  for (const Case& z : zoo) {
    cases.push_back(z);
    cases.push_back({z.g, 19});
  }
  const int batch = 2;
  for (const auto& [g, c] : cases) {
    const std::int64_t taps = static_cast<std::int64_t>(g.k) * g.k;
    std::vector<std::int8_t> in(static_cast<std::size_t>(batch * g.ih * g.iw * c));
    std::vector<std::int8_t> w(static_cast<std::size_t>(taps * c));
    std::vector<std::int32_t> zw(static_cast<std::size_t>(c));
    std::vector<float> bias(static_cast<std::size_t>(c));
    std::vector<float> scales(static_cast<std::size_t>(c));
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = static_cast<std::int8_t>((static_cast<int>(i) * 31 + 5) % 255 - 127);
    }
    for (std::size_t i = 0; i < w.size(); ++i) {
      w[i] = static_cast<std::int8_t>((static_cast<int>(i) * 47 + 13) % 251 - 125);
    }
    for (std::size_t i = 0; i < zw.size(); ++i) {
      zw[i] = static_cast<std::int32_t>(i % 5) - 2;
      bias[i] = 0.013f * static_cast<float>(i) - 0.1f;
      scales[i] = 0.0007f + 0.00011f * static_cast<float>(i);
    }
    std::vector<std::int16_t> w16(static_cast<std::size_t>(dw_weight_s8_elems(g.k, c)));
    widen_dw_weights_s8(w.data(), g.k, c, zw.data(), w16.data());
    std::vector<std::int16_t> pairs(
        static_cast<std::size_t>(dw_pair_sample_elems(c, g.k, g.stride, g.oh, g.ow)));
    std::int16_t junk = kPairJunk;
    const auto dw = [&](float relu_cap, float out_scale, std::int32_t out_zero, std::int8_t* out,
                        float* outf) {
      std::fill(pairs.begin(), pairs.end(), junk);
      junk = next_pair_junk(junk);
      dwconv2d_s8(batch, g.ih, g.iw, c, g.k, g.stride, g.pad_top, g.pad_left, g.oh, g.ow,
                  in.data(), -3, pairs.data(), w16.data(), bias.data(), scales.data(), relu_cap,
                  out_scale, out_zero, out, outf);
    };

    const std::size_t n_out = static_cast<std::size_t>(batch * g.oh * g.ow * c);
    std::vector<std::vector<std::int8_t>> quant;
    std::vector<std::vector<float>> deq;
    for (const int cap : {0, 1, 2, 3, -1}) {
      set_dispatch_cap(cap);
      quant.emplace_back(n_out);
      dw(0.0f, 0.04f, -6, quant.back().data(), nullptr);
      deq.emplace_back(n_out);
      dw(-1.0f, 1.0f, 0, nullptr, deq.back().data());
    }
    for (std::size_t t = 1; t < quant.size(); ++t) {
      EXPECT_EQ(quant[0], quant[t]) << g.ih << "x" << g.iw << " k " << g.k << " c " << c
                                    << " tier cap index " << t;
      EXPECT_EQ(deq[0], deq[t]) << g.ih << "x" << g.iw << " k " << g.k << " c " << c
                                << " tier cap index " << t;
    }
  }
}

TEST(DwConvS8, MatchesPlainInt32ReferenceOnEdgeGeometries) {
  // The reference: per output, the int32 sum of (x - za) * (w - zw) over the
  // in-range taps, then the epilogue's IEEE expressions (bias + scale *
  // acc, relu, requantize). The kernel pairs neighbouring taps of a kernel
  // row; k = 3 and 5 leave each row an unpaired last tap. The geometries put
  // one member of a pair out of range: left and right edges (pads 1 and 2),
  // a 1-pixel-wide input (only the centre column in range) and a
  // 1-pixel-tall k = 5 input. The channel counts end in steps of 1, 2 and 4
  // vectors of every tier, and 19 in a scalar remainder. Both outputs start
  // junk-filled, so an unwritten element shows, and so does the tap-pair
  // arena before every call, so an unwritten border entry shows.
  log_highest_int8_tier();
  DispatchCapGuard guard;
  const struct {
    int ih, iw, k, stride, pad_top, pad_left, oh, ow;
  } geoms[] = {{7, 6, 3, 1, 1, 1, 7, 6},
               {7, 6, 5, 2, 1, 2, 4, 5},
               {6, 1, 3, 1, 1, 1, 6, 1},
               {1, 7, 5, 1, 2, 2, 1, 7},
               {5, 5, 5, 1, 2, 2, 5, 5}};
  const int batch = 2;
  const std::int32_t za = 5;
  const float out_scale = 0.05f;
  const std::int32_t out_zero = -4;
  for (const auto& g : geoms) {
    for (const int c : {8, 19, 24, 40, 56, 64, 72}) {
      const std::int64_t taps = static_cast<std::int64_t>(g.k) * g.k;
      std::vector<std::int8_t> in(static_cast<std::size_t>(batch * g.ih * g.iw * c));
      std::vector<std::int8_t> w(static_cast<std::size_t>(taps * c));
      std::vector<std::int32_t> zw(static_cast<std::size_t>(c));
      std::vector<float> bias(static_cast<std::size_t>(c));
      std::vector<float> scales(static_cast<std::size_t>(c));
      for (std::size_t i = 0; i < in.size(); ++i) {
        in[i] = static_cast<std::int8_t>((static_cast<int>(i) * 37 + 11) % 256 - 128);
      }
      for (std::size_t i = 0; i < w.size(); ++i) {
        w[i] = static_cast<std::int8_t>((static_cast<int>(i) * 53 + 7) % 256 - 128);
      }
      for (std::size_t i = 0; i < zw.size(); ++i) {
        zw[i] = static_cast<std::int32_t>(i % 7) - 3;
        bias[i] = 0.021f * static_cast<float>(i) - 0.4f;
        scales[i] = 0.0004f + 0.00007f * static_cast<float>(i);
      }
      std::vector<std::int16_t> w16(static_cast<std::size_t>(dw_weight_s8_elems(g.k, c)));
      widen_dw_weights_s8(w.data(), g.k, c, zw.data(), w16.data());
      std::vector<std::int16_t> pairs(
          static_cast<std::size_t>(dw_pair_sample_elems(c, g.k, g.stride, g.oh, g.ow)));

      const std::size_t n_out = static_cast<std::size_t>(batch * g.oh * g.ow * c);
      std::vector<std::int32_t> acc(n_out, 0);
      std::size_t o = 0;
      for (int s = 0; s < batch; ++s) {
        for (int oy = 0; oy < g.oh; ++oy) {
          for (int ox = 0; ox < g.ow; ++ox) {
            for (int ch = 0; ch < c; ++ch, ++o) {
              for (int ky = 0; ky < g.k; ++ky) {
                for (int kx = 0; kx < g.k; ++kx) {
                  const int iy = oy * g.stride + ky - g.pad_top;
                  const int ix = ox * g.stride + kx - g.pad_left;
                  if (iy < 0 || iy >= g.ih || ix < 0 || ix >= g.iw) continue;
                  const std::size_t xi =
                      ((static_cast<std::size_t>(s) * g.ih + iy) * g.iw + ix) * c + ch;
                  const std::size_t wi = (static_cast<std::size_t>(ky) * g.k + kx) * c + ch;
                  acc[o] += (in[xi] - za) * (w[wi] - zw[static_cast<std::size_t>(ch)]);
                }
              }
            }
          }
        }
      }
      for (const float relu_cap : {-1.0f, 0.0f, 6.0f}) {
        std::vector<std::int8_t> want8(n_out);
        std::vector<float> wantf(n_out);
        for (std::size_t i = 0; i < n_out; ++i) {
          const std::size_t ch = i % static_cast<std::size_t>(c);
          float v = bias[ch] + scales[ch] * static_cast<float>(acc[i]);
          if (relu_cap >= 0.0f) {
            v = std::max(0.0f, v);
            if (relu_cap > 0.0f) v = std::min(relu_cap, v);
          }
          wantf[i] = v;
          want8[i] = requantize_value(v, 1.0f / out_scale, out_zero);
        }
        for (const int cap : {0, 1, 2, 3, -1}) {
          set_dispatch_cap(cap);
          std::vector<std::int8_t> got8(n_out, static_cast<std::int8_t>(0x5a));
          std::vector<float> gotf(n_out, std::nanf(""));
          std::fill(pairs.begin(), pairs.end(), kPairJunk);
          dwconv2d_s8(batch, g.ih, g.iw, c, g.k, g.stride, g.pad_top, g.pad_left, g.oh, g.ow,
                      in.data(), za, pairs.data(), w16.data(), bias.data(), scales.data(),
                      relu_cap, out_scale, out_zero, got8.data(), nullptr);
          std::fill(pairs.begin(), pairs.end(), kPairJunk);
          dwconv2d_s8(batch, g.ih, g.iw, c, g.k, g.stride, g.pad_top, g.pad_left, g.oh, g.ow,
                      in.data(), za, pairs.data(), w16.data(), bias.data(), scales.data(),
                      relu_cap, 1.0f, 0, nullptr, gotf.data());
          EXPECT_EQ(got8, want8) << g.ih << "x" << g.iw << " k " << g.k << " c " << c
                                 << " relu " << relu_cap << " cap " << cap;
          EXPECT_EQ(std::memcmp(gotf.data(), wantf.data(), n_out * sizeof(float)), 0)
              << g.ih << "x" << g.iw << " k " << g.k << " c " << c << " relu " << relu_cap
              << " cap " << cap;
        }
      }
    }
  }
}

TEST(GemmS8, FusedEpilogueMatchesStandaloneRequantize) {
  const std::int64_t M = 9, N = 40, K = 55;
  std::vector<std::int8_t> A(static_cast<std::size_t>(M * K));
  std::vector<std::int8_t> B(static_cast<std::size_t>(K * N));
  std::vector<std::int32_t> zw(static_cast<std::size_t>(N), 2);
  std::vector<float> bias(static_cast<std::size_t>(N));
  for (std::size_t i = 0; i < A.size(); ++i) A[i] = static_cast<std::int8_t>(i % 200 - 100);
  for (std::size_t i = 0; i < B.size(); ++i) B[i] = static_cast<std::int8_t>(i % 190 - 95);
  for (std::size_t i = 0; i < bias.size(); ++i) bias[i] = 0.02f * static_cast<float>(i) - 0.3f;
  std::vector<std::int16_t> bop(static_cast<std::size_t>(((K + 1) / 2) * N * 2));
  pack_b_s8(B.data(), K, N, zw.data(), bop.data());

  std::vector<std::int32_t> acc(static_cast<std::size_t>(M * N));
  gemm_s8(M, N, K, A.data(), -1, bop.data(), acc.data());

  for (const float relu_cap : {-1.0f, 0.0f, 6.0f}) {
    // Requant mode.
    std::vector<std::int8_t> want8(static_cast<std::size_t>(M * N));
    requantize_s8(acc.data(), M, N, bias.data(), 0.003f, relu_cap, 0.05f, -7, want8.data());
    std::vector<std::int8_t> got8(static_cast<std::size_t>(M * N));
    std::vector<std::int32_t> scratch(static_cast<std::size_t>(M * N));
    const std::vector<float> flat_scales(static_cast<std::size_t>(N), 0.003f);
    QuantEpilogue epi;
    epi.bias = bias.data();
    epi.col_scales = flat_scales.data();
    epi.relu_cap = relu_cap;
    epi.inv_out_scale = 1.0f / 0.05f;
    epi.out_zero = -7;
    epi.dst = got8.data();
    gemm_s8(M, N, K, A.data(), -1, bop.data(), scratch.data(), &epi);
    for (std::size_t i = 0; i < want8.size(); ++i) {
      ASSERT_EQ(want8[i], got8[i]) << "relu_cap " << relu_cap << " i " << i;
    }

    // Dequant mode.
    std::vector<float> wantf(static_cast<std::size_t>(M * N));
    dequantize_f32(acc.data(), M, N, bias.data(), 0.003f, relu_cap, wantf.data());
    std::vector<float> gotf(static_cast<std::size_t>(M * N));
    QuantEpilogue epif = epi;
    epif.dst = nullptr;
    epif.dstf = gotf.data();
    gemm_s8(M, N, K, A.data(), -1, bop.data(), scratch.data(), &epif);
    for (std::size_t i = 0; i < wantf.size(); ++i) {
      ASSERT_EQ(wantf[i], gotf[i]) << "relu_cap " << relu_cap << " i " << i;
    }
  }
}

TEST(GemmS8, PanelPackWritesPadTapsAsZero) {
  // 3x3 input, 3x3 same-padded kernel: the corner patch has 5 pad taps. A
  // pad tap holds the zero point, so after zero-point subtraction it is 0.
  // The pack starts as junk, so a tap left unwritten shows.
  const std::int8_t in[] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const std::int32_t zp = -9;
  const int K = 9;
  const int kp = 5;  // ceil(K / 2)
  std::vector<std::int32_t> pack(static_cast<std::size_t>(3 * kMr * kp), 0x5a5a5a5a);
  std::vector<std::int16_t> border = junk_bordered<std::int16_t>(1, 3, 3, 1, 1, 3, 3, 0x5a5a);
  im2col_pack_a_s8_nhwc(1, 3, 3, 1, 3, 3, 1, 1, 1, 1, 3, 3, static_cast<std::int8_t>(zp), in,
                        border.data(), pack.data());
  // Output position (0,0) is patch row 0: taps (ky,kx) over rows -1..1,
  // cols -1..1. The odd-K pad half after them is left unwritten (B's zero
  // pad makes it inert), so it is not checked.
  std::int16_t row[2 * kp];
  std::memcpy(row, pack.data(), sizeof row);
  const std::int16_t want[K] = {0, 0, 0, 0, 1 - zp, 2 - zp, 0, 4 - zp, 5 - zp};
  for (int i = 0; i < K; ++i) EXPECT_EQ(row[i], want[i]) << i;
}

/// One non-pointwise conv geometry (NHWC; a conv1d is a 1 x L image, as
/// the lowering maps it).
struct ConvGeom {
  std::string what;
  int batch, ih, iw, ic, kh, kw, sh, sw, pad_top, pad_left, oh, ow, oc;
};

/// Every non-pointwise Conv2D / Conv1D of the three zoo models, at batch 3.
std::vector<ConvGeom> zoo_conv_geoms() {
  std::vector<ConvGeom> out;
  for (int idx = 0; idx < 3; ++idx) {
    const Model m = zoo_model(idx);
    for (std::size_t i = 0; i < m.layer_count(); ++i) {
      const Shape& in = m.layer_input_shape(i);
      const std::string what = m.name() + " layer " + std::to_string(i);
      if (const auto* c = dynamic_cast<const Conv2D*>(&m.layer(i))) {
        if (c->kernel_h() == 1 && c->kernel_w() == 1 && c->stride_h() == 1 &&
            c->stride_w() == 1) {
          continue;
        }
        ConvGeom g{what, 3, in[0], in[1], c->in_channels(), c->kernel_h(), c->kernel_w(),
                   c->stride_h(), c->stride_w(), 0, 0, 0, 0, c->out_channels()};
        c->geometry(in, g.oh, g.ow, g.pad_top, g.pad_left);
        out.push_back(g);
      } else if (const auto* c1 = dynamic_cast<const Conv1D*>(&m.layer(i))) {
        if (c1->kernel() == 1 && c1->stride() == 1) continue;
        ConvGeom g{what, 3, 1, in[0], c1->in_channels(), 1, c1->kernel(), 1, c1->stride(), 0, 0,
                   1, 0, c1->out_channels()};
        c1->geometry(in, g.ow, g.pad_left);
        out.push_back(g);
      }
    }
  }
  return out;
}

TEST(GemmS8, ConvPanelPackMatchesNaiveInt32Conv) {
  // The one int8 conv lowering, `im2col_pack_a_s8_nhwc` + `gemm_s8_pa`,
  // against a naive int32 conv loop that skips out-of-range taps, at every
  // dispatch cap. The zoo shapes include the ic = 1 ECG front conv (K = 7)
  // and VWW's K = 27; the extra shapes add pad taps on every side, odd K,
  // an M that is not a multiple of kMr and a K past one 256-term block.
  std::vector<ConvGeom> geoms = zoo_conv_geoms();
  ASSERT_EQ(geoms.size(), 5u);  // kws 1, ecg 3, vww 1
  geoms.push_back({"5x6x3 k3x2 s1 pad 1,1", 1, 5, 6, 3, 3, 2, 1, 1, 1, 1, 5, 7, 9});
  geoms.push_back({"7x5x2 k5x3 s2 pad 2,1", 2, 7, 5, 2, 5, 3, 2, 2, 2, 1, 4, 3, 20});
  geoms.push_back({"9x1x37 k9 s1 pad 4", 1, 9, 1, 37, 9, 1, 1, 1, 4, 0, 9, 1, 17});
  log_highest_int8_tier();
  DispatchCapGuard guard;
  for (const ConvGeom& g : geoms) {
    const std::int64_t K = static_cast<std::int64_t>(g.kh) * g.kw * g.ic;
    const std::int64_t M = static_cast<std::int64_t>(g.batch) * g.oh * g.ow;
    const std::int64_t kp = (K + 1) / 2;
    std::vector<std::int8_t> in(static_cast<std::size_t>(g.batch) * g.ih * g.iw * g.ic);
    std::vector<std::int8_t> w(static_cast<std::size_t>(K * g.oc));  // K-major [K][oc]
    std::vector<std::int32_t> zw(static_cast<std::size_t>(g.oc));
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = static_cast<std::int8_t>((static_cast<int>(i) * 41 + 9) % 255 - 127);
    }
    for (std::size_t i = 0; i < w.size(); ++i) {
      w[i] = static_cast<std::int8_t>((static_cast<int>(i) * 59 + 4) % 253 - 126);
    }
    for (std::size_t i = 0; i < zw.size(); ++i) zw[i] = static_cast<std::int32_t>(i % 9) - 4;
    const std::int32_t za = 5;

    std::vector<std::int32_t> ref(static_cast<std::size_t>(M * g.oc));
    std::int64_t r = 0;
    for (int s = 0; s < g.batch; ++s) {
      const std::int8_t* ib = in.data() + static_cast<std::int64_t>(s) * g.ih * g.iw * g.ic;
      for (int oy = 0; oy < g.oh; ++oy) {
        for (int ox = 0; ox < g.ow; ++ox, ++r) {
          for (int n = 0; n < g.oc; ++n) {
            std::int32_t acc = 0;
            for (int ky = 0; ky < g.kh; ++ky) {
              const int iy = oy * g.sh + ky - g.pad_top;
              if (iy < 0 || iy >= g.ih) continue;
              for (int kx = 0; kx < g.kw; ++kx) {
                const int ix = ox * g.sw + kx - g.pad_left;
                if (ix < 0 || ix >= g.iw) continue;
                const std::int8_t* px = ib + (static_cast<std::int64_t>(iy) * g.iw + ix) * g.ic;
                for (int c = 0; c < g.ic; ++c) {
                  const std::int64_t k = (static_cast<std::int64_t>(ky) * g.kw + kx) * g.ic + c;
                  acc += (px[c] - za) * (w[static_cast<std::size_t>(k * g.oc + n)] - zw[n]);
                }
              }
            }
            ref[static_cast<std::size_t>(r * g.oc + n)] = acc;
          }
        }
      }
    }

    std::vector<std::int16_t> bop(static_cast<std::size_t>(kp * g.oc * 2));
    pack_b_s8(w.data(), K, g.oc, zw.data(), bop.data());
    // Pre-filled with junk, as a reused arena is, so a tap the pack leaves
    // unwritten shows. With odd K the last pair's high half stays junk: it
    // meets the zero B half `pack_b_s8` writes, so the products still match.
    std::vector<std::int32_t> pack(static_cast<std::size_t>((M + kMr - 1) / kMr * kMr * kp),
                                   0x5a5a5a5a);
    std::vector<std::int16_t> border =
        junk_bordered<std::int16_t>(g.ic, g.kh, g.kw, g.sh, g.sw, g.oh, g.ow, 0x5a5a);
    im2col_pack_a_s8_nhwc(g.batch, g.ih, g.iw, g.ic, g.kh, g.kw, g.sh, g.sw, g.pad_top,
                          g.pad_left, g.oh, g.ow, static_cast<std::int8_t>(za), in.data(),
                          border.data(), pack.data());
    for (const int cap : {0, 1, 2, 3, -1}) {
      set_dispatch_cap(cap);
      std::vector<std::int32_t> got(ref.size());
      gemm_s8_pa(M, g.oc, K, pack.data(), bop.data(), got.data());
      EXPECT_EQ(got, ref) << g.what << " (M=" << M << " K=" << K << ") cap " << cap;
    }
  }
}

TEST(Im2col, Conv1DAsOneRowMatchesOneColumnBitwise) {
  // Conv1D lowers a signal as a 1 x L image, so a patch row's in-range taps
  // are one slice; the L x 1 form copies them tap by tap. Both must extract
  // byte-identical patches, f32 and the int8 panel pack alike, at every ECG
  // conv (k 7/5/5, stride 2, same padding: lead and trail pad taps) and at
  // a stride-1 shape whose every row but the middle one meets a pad.
  struct Conv1DGeom {
    std::string what;
    int il, ic, k, s, pad_lead, ol;
  };
  std::vector<Conv1DGeom> geoms;
  const Model ecg = make_ecg_cnn1d();
  for (std::size_t i = 0; i < ecg.layer_count(); ++i) {
    if (const auto* c1 = dynamic_cast<const Conv1D*>(&ecg.layer(i))) {
      const Shape& in = ecg.layer_input_shape(i);
      Conv1DGeom g{"ecg layer " + std::to_string(i), in[0], c1->in_channels(), c1->kernel(),
                   c1->stride(), 0, 0};
      c1->geometry(in, g.ol, g.pad_lead);
      geoms.push_back(g);
    }
  }
  ASSERT_EQ(geoms.size(), 3u);
  geoms.push_back({"L9 c37 k9 s1 pad 4", 9, 37, 9, 1, 4, 9});
  constexpr int kBatch = 3;
  for (const Conv1DGeom& g : geoms) {
    ASSERT_GT(g.pad_lead, 0) << g.what;
    const std::int64_t K = static_cast<std::int64_t>(g.k) * g.ic;
    const std::int64_t M = static_cast<std::int64_t>(kBatch) * g.ol;
    const std::size_t in_elems = static_cast<std::size_t>(kBatch) * g.il * g.ic;

    std::vector<float> in(in_elems);
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = std::sin(static_cast<double>(i) * 0.31);
    std::vector<float> col_row(static_cast<std::size_t>(M * K), 7.0f), col_col = col_row;
    std::vector<float> border = junk_bordered(g.ic, 1, g.k, 1, g.s, 1, g.ol, 7.0f);
    im2col_nhwc(kBatch, 1, g.il, g.ic, 1, g.k, 1, g.s, 0, g.pad_lead, 1, g.ol, in.data(),
                border.data(), col_row.data());
    std::fill(border.begin(), border.end(), 7.0f);
    im2col_nhwc(kBatch, g.il, 1, g.ic, g.k, 1, g.s, 1, g.pad_lead, 0, g.ol, 1, in.data(),
                border.data(), col_col.data());
    EXPECT_EQ(std::memcmp(col_row.data(), col_col.data(), col_row.size() * sizeof(float)), 0)
        << g.what << " f32";
    EXPECT_EQ(std::count(col_row.begin(), col_row.end(), 7.0f), 0) << g.what << " f32 unwritten";

    std::vector<std::int8_t> in8(in_elems);
    for (std::size_t i = 0; i < in8.size(); ++i) {
      in8[i] = static_cast<std::int8_t>((static_cast<int>(i) * 37 + 11) % 255 - 127);
    }
    const std::int64_t kp = (K + 1) / 2;
    std::vector<std::int32_t> pack_row(static_cast<std::size_t>((M + kMr - 1) / kMr * kMr * kp),
                                       0x5a5a5a5a);
    std::vector<std::int32_t> pack_col = pack_row;
    const auto za = static_cast<std::int8_t>(-3);
    std::vector<std::int16_t> border8 =
        junk_bordered<std::int16_t>(g.ic, 1, g.k, 1, g.s, 1, g.ol, 0x5a5a);
    im2col_pack_a_s8_nhwc(kBatch, 1, g.il, g.ic, 1, g.k, 1, g.s, 0, g.pad_lead, 1, g.ol, za,
                          in8.data(), border8.data(), pack_row.data());
    std::fill(border8.begin(), border8.end(), std::int16_t{0x5a5a});
    im2col_pack_a_s8_nhwc(kBatch, g.il, 1, g.ic, g.k, 1, g.s, 1, g.pad_lead, 0, g.ol, 1, za,
                          in8.data(), border8.data(), pack_col.data());
    EXPECT_EQ(std::memcmp(pack_row.data(), pack_col.data(), pack_row.size() * sizeof(std::int32_t)),
              0)
        << g.what << " int8";
  }
}

/// One axis of a conv geometry: same padding gives ceil(in / s) outputs and
/// puts the smaller half of the pad first; valid padding pads nothing.
void conv_axis_ref(int in, int k, int s, bool same, int& out, int& lead) {
  if (!same) {
    out = (in - k) / s + 1;
    lead = 0;
    return;
  }
  out = (in + s - 1) / s;
  lead = std::max(0, (out - 1) * s + k - in) / 2;
}

TEST(Im2col, BorderedGatherMatchesPerTapReference) {
  // Both patch extractors copy each sample into a zero-bordered buffer and
  // gather every patch row out of it as kh straight slices. The reference
  // here walks tap by tap: an in-range tap is the input value (int8: value
  // - za as int16), a pad tap is 0.0f (int8: 0). Shapes: KWS's front conv,
  // the three ECG convs as 1 x L images, kernels larger than the input,
  // odd pads on all four sides, stride 3, valid padding, ic in {1, 3, 8,
  // 16} and odd K, all at batch 3. The patch matrix, the panel pack and the
  // workspace's bordered arenas start as junk before every call, so a tap
  // left unwritten, a write outside a patch row or a stale border shows.
  struct Geom {
    std::string what;
    int ih, iw, ic, kh, kw, sh, sw;
    bool same;
  };
  std::vector<Geom> geoms = {{"kws op0 49x10x1 k10x4 s2", 49, 10, 1, 10, 4, 2, 2, true}};
  const Model ecg = make_ecg_cnn1d();
  for (std::size_t i = 0; i < ecg.layer_count(); ++i) {
    if (const auto* c1 = dynamic_cast<const Conv1D*>(&ecg.layer(i))) {
      const Shape& in = ecg.layer_input_shape(i);
      geoms.push_back({"ecg layer " + std::to_string(i), 1, in[0], c1->in_channels(), 1,
                       c1->kernel(), 1, c1->stride(), true});
    }
  }
  ASSERT_EQ(geoms.size(), 4u);
  geoms.push_back({"kernel > input 3x2x3 k5x5 s1", 3, 2, 3, 5, 5, 1, 1, true});
  geoms.push_back({"kernel > input 2x3x8 k7x4 s2", 2, 3, 8, 7, 4, 2, 2, true});
  geoms.push_back({"odd pads 6x7x3 k4x2 s1", 6, 7, 3, 4, 2, 1, 1, true});
  geoms.push_back({"stride 3 10x11x16 k3x5", 10, 11, 16, 3, 5, 3, 3, true});
  geoms.push_back({"valid 9x8x8 k3x3 s2", 9, 8, 8, 3, 3, 2, 2, false});
  geoms.push_back({"valid stride 3 11x7x3 k5x1", 11, 7, 3, 5, 1, 3, 3, false});
  geoms.push_back({"valid 1x1 input k1x1 s3 16ch", 7, 7, 16, 1, 1, 3, 3, false});
  constexpr int kBatch = 3;
  const auto za = static_cast<std::int8_t>(-7);
  Workspace ws;
  for (const Geom& g : geoms) {
    int oh, ow, pt, pl;
    conv_axis_ref(g.ih, g.kh, g.sh, g.same, oh, pt);
    conv_axis_ref(g.iw, g.kw, g.sw, g.same, ow, pl);
    const std::int64_t K = static_cast<std::int64_t>(g.kh) * g.kw * g.ic;
    const std::int64_t M = static_cast<std::int64_t>(kBatch) * oh * ow;
    const std::int64_t kp = (K + 1) / 2;
    const std::size_t in_elems = static_cast<std::size_t>(kBatch) * g.ih * g.iw * g.ic;
    std::vector<float> in(in_elems);
    std::vector<std::int8_t> in8(in_elems);
    for (std::size_t i = 0; i < in_elems; ++i) {
      in[i] = 1.0f + static_cast<float>(std::sin(static_cast<double>(i) * 0.37));
      in8[i] = static_cast<std::int8_t>((static_cast<int>(i) * 53 + 19) % 255 - 127);
    }

    // The per-tap reference: patch row r, tap k at want[r * K + k], and the
    // same value at int16 k of row r's panel slot; everything else keeps
    // the junk the extractor's output starts with.
    std::vector<float> want(static_cast<std::size_t>(M * K), -3.5f);
    std::vector<std::int32_t> want_pack(static_cast<std::size_t>((M + kMr - 1) / kMr * kMr * kp),
                                        0x5a5a5a5a);
    auto* want16 = reinterpret_cast<std::int16_t*>(want_pack.data());
    std::int64_t r = 0;
    for (int s = 0; s < kBatch; ++s) {
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox, ++r) {
          std::int16_t* slot = want16 + 2 * ((r / kMr) * kMr * kp + (r % kMr) * kp);
          std::int64_t k = 0;
          for (int ky = 0; ky < g.kh; ++ky) {
            for (int kx = 0; kx < g.kw; ++kx) {
              const int iy = oy * g.sh + ky - pt;
              const int ix = ox * g.sw + kx - pl;
              const bool inside = iy >= 0 && iy < g.ih && ix >= 0 && ix < g.iw;
              for (int c = 0; c < g.ic; ++c, ++k) {
                const std::size_t at =
                    ((static_cast<std::size_t>(s) * g.ih + iy) * g.iw + ix) * g.ic + c;
                want[static_cast<std::size_t>(r * K + k)] = inside ? in[at] : 0.0f;
                slot[k] = inside ? static_cast<std::int16_t>(in8[at] - za) : std::int16_t{0};
              }
            }
          }
        }
      }
    }

    const std::int64_t border = bordered_sample_elems(g.ic, g.kh, g.kw, g.sh, g.sw, oh, ow);
    ws.reserve_bordered(border);
    ws.reserve_bordered_s16(border);
    std::fill(ws.bordered(), ws.bordered() + border, -3.5f);
    std::fill(ws.bordered_s16(), ws.bordered_s16() + border, std::int16_t{0x5a5a});
    std::vector<float> col(want.size(), -3.5f);
    im2col_nhwc(kBatch, g.ih, g.iw, g.ic, g.kh, g.kw, g.sh, g.sw, pt, pl, oh, ow, in.data(),
                ws.bordered(), col.data());
    EXPECT_EQ(std::memcmp(col.data(), want.data(), col.size() * sizeof(float)), 0)
        << g.what << " f32";
    std::vector<std::int32_t> pack(want_pack.size(), 0x5a5a5a5a);
    im2col_pack_a_s8_nhwc(kBatch, g.ih, g.iw, g.ic, g.kh, g.kw, g.sh, g.sw, pt, pl, oh, ow, za,
                          in8.data(), ws.bordered_s16(), pack.data());
    EXPECT_EQ(std::memcmp(pack.data(), want_pack.data(), pack.size() * sizeof(std::int32_t)), 0)
        << g.what << " int8";
  }
}

TEST(Conv1DLowering, MatchesOneRowConv2DBitwiseInBothPrecisions) {
  // A Conv1D over an L x C signal is a 1 x k Conv2D over a 1 x L x C image
  // with the same weights, so both models must give the same bits in f32
  // and in int8 (same calibration data, same per-channel weight scales).
  // This pins each precision's Conv1D geometry — lead pad, stride, kernel
  // axis — against the Conv2D's. The shapes are the three ECG convs, a
  // stride-1 conv with pads on both sides, and an even kernel with valid
  // padding.
  const struct {
    int il, ic, oc, k, s;
    Padding pad;
  } cases[] = {{360, 1, 8, 7, 2, Padding::kSame},  {180, 8, 16, 5, 2, Padding::kSame},
               {90, 16, 32, 5, 2, Padding::kSame}, {9, 37, 17, 9, 1, Padding::kSame},
               {20, 3, 5, 4, 3, Padding::kValid}};
  constexpr int kBatch = 3;
  for (const auto& c : cases) {
    WeightGen gen(static_cast<std::uint64_t>(c.il * 31 + c.k));
    const std::vector<float> w = gen.weights(static_cast<std::size_t>(c.oc) * c.k * c.ic, c.k * c.ic);
    const std::vector<float> b = gen.biases(static_cast<std::size_t>(c.oc));
    Model m1("conv1d", Shape{c.il, c.ic});
    m1.add(std::make_unique<Conv1D>(c.ic, c.oc, c.k, c.s, c.pad, w, b));
    m1.add(std::make_unique<Relu>());
    Model m2("conv2d-1xk", Shape{1, c.il, c.ic});
    m2.add(std::make_unique<Conv2D>(c.ic, c.oc, 1, c.k, 1, c.s, c.pad, w, b));
    m2.add(std::make_unique<Relu>());
    std::vector<Tensor> inputs;
    for (int s = 0; s < kBatch; ++s) inputs.push_back(patterned_tensor(m1.input_shape(), s));
    const Tensor stacked = stack_batch(inputs);
    const std::string what = "L " + std::to_string(c.il) + " ic " + std::to_string(c.ic) +
                             " k " + std::to_string(c.k) + " s " + std::to_string(c.s);

    Workspace ws1, ws2;
    const ConstSpan f1 = m1.run_into(ws1, stacked.data(), kBatch);
    const ConstSpan f2 = m2.run_into(ws2, stacked.data(), kBatch);
    ASSERT_EQ(f1.size, f2.size) << what;
    EXPECT_EQ(std::memcmp(f1.data, f2.data, static_cast<std::size_t>(f1.size) * sizeof(float)), 0)
        << what << " f32";

    const QuantizedModel q1(m1), q2(m2);
    const ConstSpan i1 = q1.run_into(ws1, stacked.data(), kBatch);
    const ConstSpan i2 = q2.run_into(ws2, stacked.data(), kBatch);
    ASSERT_EQ(i1.size, i2.size) << what;
    EXPECT_EQ(std::memcmp(i1.data, i2.data, static_cast<std::size_t>(i1.size) * sizeof(float)), 0)
        << what << " int8";
  }
}

TEST(QuantizedEngine, GlobalAvgPoolMatchesNaiveChannelSums) {
  // A GAP op on its own (the FC after it only makes the GAP part of the int8
  // span): its int8 output, dequantized at the boundary, against a naive
  // per-channel int32 sum and `requantize_value`. c = 19 is no multiple of
  // any vector width.
  const int h = 5, w = 3, c = 19;
  WeightGen gen(23);
  Model m("gap-fc", Shape{h, w, c});
  m.add(std::make_unique<GlobalAvgPool>());
  m.add(std::make_unique<FullyConnected>(c, 4, gen.weights(4u * c, c), gen.biases(4)));
  const QuantizedModel qm(m);
  ASSERT_EQ(qm.op_count(), 2u);  // gap, fc
  const QuantParams& q = qm.input_params();

  constexpr int kBatch = 3;
  const Tensor x = patterned_tensor(Shape{kBatch, h, w, c}, 17);
  std::vector<std::int8_t> x8(static_cast<std::size_t>(x.size()));
  quantize_f32_to_s8(x.data(), x.size(), q.scale, q.zero_point, x8.data());
  std::vector<float> want(static_cast<std::size_t>(kBatch * c));
  for (int s = 0; s < kBatch; ++s) {
    for (int ch = 0; ch < c; ++ch) {
      std::int32_t sum = 0;
      for (int p = 0; p < h * w; ++p) sum += x8[static_cast<std::size_t>((s * h * w + p) * c + ch)];
      const float v = q.scale * (static_cast<float>(sum) / static_cast<float>(h * w) -
                                 static_cast<float>(q.zero_point));
      const std::int8_t g = requantize_value(v, 1.0f / q.scale, q.zero_point);
      want[static_cast<std::size_t>(s * c + ch)] =
          q.scale * static_cast<float>(static_cast<std::int32_t>(g) - q.zero_point);
    }
  }

  Workspace ws;
  const ConstSpan got = qm.run_range_into(ws, x.data(), kBatch, 0, 1);
  ASSERT_EQ(got.size, static_cast<std::int64_t>(want.size()));
  EXPECT_EQ(std::memcmp(got.data, want.data(), want.size() * sizeof(float)), 0);
}

// ---- zoo accuracy vs the f32 oracle -----------------------------------------

TEST(QuantizedZoo, BoundedLogitErrorAndTop1AgreementOnDecisiveInputs) {
  // Quantization error bounds are empirical for these fixed deterministic
  // models/inputs (integer kernels are bit-stable across platforms). Top-1
  // agreement is then asserted wherever the f32 decision margin exceeds
  // TWICE the measured per-logit error — at that margin a flip is
  // mathematically impossible, so the assertion follows from the bound
  // instead of being a fourth independent empirical claim. A coin-flip
  // input (margin ~1e-3 on a 2-class random-weight model) is not decidable
  // at int8 resolution by construction.
  const double kMaxLogitErr = 0.05;
  constexpr int kInputs = 32;
  for (int idx = 0; idx < 3; ++idx) {
    const Model m = zoo_model(idx);
    const QuantizedModel qm(m);
    // Pass 1: per-input outputs and the model's measured error bound.
    std::vector<Tensor> f32_out, int8_out;
    double max_err = 0.0;
    for (int s = 0; s < kInputs; ++s) {
      const Tensor x = patterned_tensor(m.input_shape(), 100 + s);
      f32_out.push_back(m.forward(x));
      int8_out.push_back(qm.forward(x));
      ASSERT_EQ(f32_out.back().size(), int8_out.back().size()) << m.name();
      max_err = std::max(max_err, f32_out.back().max_abs_diff(int8_out.back()));
    }
    EXPECT_LE(max_err, kMaxLogitErr) << m.name();
    // Pass 2: agreement on every decisive input (margin > 2 * max_err).
    int decisive = 0;
    for (int s = 0; s < kInputs; ++s) {
      const Tensor& f = f32_out[static_cast<std::size_t>(s)];
      const Tensor& q = int8_out[static_cast<std::size_t>(s)];
      const int af = argmax(f.data(), f.size());
      double runner_up = -1e30;
      for (std::int64_t i = 0; i < f.size(); ++i) {
        if (static_cast<int>(i) != af) runner_up = std::max(runner_up, double{f[i]});
      }
      if (f[af] - runner_up > 2.0 * max_err) {
        ++decisive;
        EXPECT_EQ(argmax(q.data(), q.size()), af) << m.name() << " sample " << s;
      }
    }
    // The input set must actually exercise the agreement property.
    EXPECT_GE(decisive, kInputs * 3 / 4) << m.name();
  }
}

TEST(QuantizedZoo, WeightBytesMatchParameterFootprint) {
  for (int idx = 0; idx < 3; ++idx) {
    const Model m = zoo_model(idx);
    const QuantizedModel qm(m);
    // One int8 byte per weight; biases stay f32 (not streamed per pass).
    std::uint64_t weights = 0;
    for (std::size_t i = 0; i < m.layer_count(); ++i) weights += m.layer(i).param_count();
    EXPECT_GT(qm.weight_bytes(), 0);
    EXPECT_LE(qm.weight_bytes(), static_cast<std::int64_t>(weights)) << m.name();
  }
}

// ---- batch invariance -------------------------------------------------------

TEST(QuantizedEngine, BatchedResultsBitIdenticalToSingleSample) {
  // Integer accumulation is batch-invariant, and the epilogue is
  // elementwise — so unlike a float engine, the int8 path is bit-identical
  // across batch sizes by construction. Assert it.
  for (int idx = 0; idx < 3; ++idx) {
    const Model m = zoo_model(idx);
    const QuantizedModel qm(m);
    constexpr int kBatch = 4;
    std::vector<Tensor> inputs;
    for (int s = 0; s < kBatch; ++s) inputs.push_back(patterned_tensor(m.input_shape(), 40 + s));
    const Tensor stacked = stack_batch(inputs);
    Workspace ws;
    const ConstSpan batched = qm.run_into(ws, stacked.data(), kBatch);
    for (int s = 0; s < kBatch; ++s) {
      const Tensor single = qm.forward(inputs[static_cast<std::size_t>(s)]);
      const ConstSpan row{batched.data + s * single.size(), single.size()};
      EXPECT_EQ(max_abs_diff(row, ConstSpan{single.data(), single.size()}), 0.0)
          << m.name() << " sample " << s;
    }
  }
}

TEST(QuantizedEngine, StandaloneReluAndMidChainSoftmaxOpsRun) {
  // No zoo model lowers a relu that follows no weighted layer, or a softmax
  // ahead of the last weighted layer: this chain runs both int8 op kinds.
  WeightGen gen(91);
  Model m("relu-softmax-chain", Shape{8});
  m.add(std::make_unique<Relu>());
  m.add(std::make_unique<FullyConnected>(8, 6, gen.weights(48, 8), gen.biases(6)));
  m.add(std::make_unique<Softmax>());
  m.add(std::make_unique<FullyConnected>(6, 3, gen.weights(18, 6), gen.biases(3)));
  m.add(std::make_unique<Softmax>());
  const QuantizedModel qm(m);
  EXPECT_EQ(qm.op_count(), 4u);  // relu, fc, softmax, fc
  EXPECT_EQ(qm.float_tail_start(), 4u);

  constexpr int kInputs = 8;
  std::vector<Tensor> inputs;
  double max_err = 0.0;
  for (int s = 0; s < kInputs; ++s) {
    inputs.push_back(patterned_tensor(m.input_shape(), 70 + s));
    max_err = std::max(max_err, m.forward(inputs.back()).max_abs_diff(qm.forward(inputs.back())));
  }
  EXPECT_LE(max_err, 0.05);

  const Tensor stacked = stack_batch(inputs);
  Workspace ws;
  const ConstSpan batched = qm.run_into(ws, stacked.data(), kInputs);
  for (int s = 0; s < kInputs; ++s) {
    const Tensor single = qm.forward(inputs[static_cast<std::size_t>(s)]);
    const ConstSpan row{batched.data + s * single.size(), single.size()};
    EXPECT_EQ(max_abs_diff(row, ConstSpan{single.data(), single.size()}), 0.0)
        << "sample " << s;
  }
}

// ---- zero-allocation steady state -------------------------------------------

TEST(QuantizedEngine, SteadyStateInferenceLoopNeverTouchesTheHeap) {
  const Model models[] = {zoo_model(0), zoo_model(1), zoo_model(2)};
  std::vector<std::unique_ptr<QuantizedModel>> qms;
  for (const Model& m : models) qms.push_back(std::make_unique<QuantizedModel>(m));
  Workspace ws;
  std::vector<Tensor> inputs, batched;
  for (std::size_t i = 0; i < 3; ++i) {
    inputs.push_back(patterned_tensor(models[i].input_shape(), 5));
    Shape bshape{4};
    const Shape& in = models[i].input_shape();
    bshape.insert(bshape.end(), in.begin(), in.end());
    batched.push_back(patterned_tensor(bshape, 6));
    ws.configure(*qms[i], 4);
  }
  // Warm-up: first passes may still grow the arenas to the high-water mark.
  for (std::size_t i = 0; i < 3; ++i) {
    qms[i]->run_into(ws, inputs[i].data(), 1);
    qms[i]->run_into(ws, batched[i].data(), 4);
  }
  const std::uint64_t before = g_alloc_count.load();
  float sink = 0.0f;
  for (int rep = 0; rep < 20; ++rep) {
    for (std::size_t i = 0; i < 3; ++i) {
      sink += qms[i]->run_into(ws, inputs[i].data(), 1)[0];
      sink += qms[i]->run_into(ws, batched[i].data(), 4)[0];
    }
  }
  const std::uint64_t allocs = g_alloc_count.load() - before;
  EXPECT_TRUE(std::isfinite(sink));
  EXPECT_EQ(allocs, 0u) << "steady-state int8 inference loop performed heap allocations";
}

// ---- shared Precision enum reaches the partitioner --------------------------

TEST(Precision, TransportPrecisionScalesPartitionerBoundaryBytes) {
  const Model m = zoo_model(1);  // ecg
  partition::CostModel cm;
  cm.leaf_hub = {"bus", 1e6, 100e-12, 40e-12, 1e-4};
  cm.hub_cloud = {"uplink", 20e6, 30e-9, 30e-9, 20e-3};
  cm.transport = nn::Precision::kInt8;
  const partition::PartitionPlan int8_plan =
      partition::Partitioner(m, cm).full_offload();
  cm.transport = nn::Precision::kF32;
  const partition::PartitionPlan f32_plan = partition::Partitioner(m, cm).full_offload();
  // f32 transport ships exactly 4x the int8 payload; the int8 wire adds its
  // quant-params header on top (see nn::activation_wire_bytes).
  EXPECT_EQ(f32_plan.bytes_leaf_to_hub,
            4 * (int8_plan.bytes_leaf_to_hub - nn::kActivationHeaderBytes));
  EXPECT_EQ(bytes_per_element(nn::Precision::kF32), 4);
  EXPECT_EQ(bytes_per_element(nn::Precision::kInt8), 1);
}

// ---- precision-aware hub sessions -------------------------------------------

net::SessionStats run_precision_session(nn::Precision precision, bool execute,
                                        const Model* net_model, unsigned batch_window = 0) {
  net::NetworkConfig cfg;
  cfg.seed = 11;
  cfg.hub.batch_window = batch_window;
  cfg.hub.execute_and_meter = execute;
  net::NetworkSim sim(std::make_unique<comm::WiRLink>(), cfg);
  net::NodeConfig n;
  n.name = "ecg-patch";
  n.stream = "ecg";
  n.output_rate_bps = 64e3;
  n.frame_bytes = 240;
  sim.add_node(n);
  net::SessionConfig s;
  s.stream = "ecg";
  s.macs_per_inference = 185'000;
  s.bytes_per_inference = 240;
  s.model = "ecg-cnn1d";
  s.weight_bytes = 9'000;
  s.net = net_model;
  s.precision = precision;
  sim.add_session(s);
  sim.run(1.0);
  return sim.hub().session("ecg");
}

TEST(PrecisionSessions, Int8AnalyticEnergyAppliesMacScale) {
  const net::SessionStats f32 = run_precision_session(nn::Precision::kF32, false, nullptr);
  const net::SessionStats int8 = run_precision_session(nn::Precision::kInt8, false, nullptr);
  ASSERT_GT(f32.inferences, 10u);
  ASSERT_EQ(f32.inferences, int8.inferences);
  const net::HubConfig defaults;
  // Hand-computed per-inference charges.
  const double mac_j = 185'000.0 * defaults.energy_per_mac_j;
  const double weight_j = 9'000.0 * defaults.energy_per_weight_byte_j;
  const double n = static_cast<double>(f32.inferences);
  EXPECT_NEAR(f32.compute_energy_j, n * (mac_j + weight_j), n * 1e-18);
  EXPECT_NEAR(int8.compute_energy_j,
              n * (mac_j * defaults.int8_mac_energy_scale + weight_j), n * 1e-18);
  EXPECT_LT(int8.compute_energy_j, f32.compute_energy_j);
}

TEST(PrecisionSessions, F32LedgerBitIdenticalToPrePrecisionDefaults) {
  // SessionConfig::precision defaults to f32: the analytic ledger must be
  // exactly `macs * e_mac + weights * e_w` per inference — the same doubles
  // the pre-precision hub charged (x1.0 is exact).
  const net::SessionStats st = run_precision_session(nn::Precision::kF32, false, nullptr);
  const net::HubConfig defaults;
  const double per_inference = 185'000.0 * defaults.energy_per_mac_j +
                               9'000.0 * defaults.energy_per_weight_byte_j;
  double expect = 0.0;
  for (std::uint64_t i = 0; i < st.inferences; ++i) expect += per_inference;
  EXPECT_EQ(st.compute_energy_j, expect);
  EXPECT_EQ(st.compute_energy_j, st.analytic_compute_energy_j);
}

TEST(PrecisionSessions, ExecuteAndMeterInt8ChargesMeasuredKernelTime) {
  const Model ecg = make_ecg_cnn1d();
  for (const unsigned window : {0u, 4u}) {
    const net::SessionStats st =
        run_precision_session(nn::Precision::kInt8, true, &ecg, window);
    ASSERT_GT(st.inferences, 10u) << "window " << window;
    EXPECT_EQ(st.executed_inferences, st.inferences) << "window " << window;
    EXPECT_GT(st.kernel_time_s, 0.0) << "window " << window;
    const net::HubConfig defaults;
    EXPECT_DOUBLE_EQ(st.compute_energy_j, st.kernel_time_s * defaults.compute_power_w)
        << "window " << window;
    // The analytic ledger is independent of metering (it never clocks).
    const net::SessionStats analytic =
        run_precision_session(nn::Precision::kInt8, false, nullptr, window);
    EXPECT_EQ(st.analytic_compute_energy_j, analytic.analytic_compute_energy_j)
        << "window " << window;
  }
}

// ---- fleet determinism with the precision axis ------------------------------

core::FleetAxes precision_axes() {
  core::NodeClassSpec audio;
  audio.base.name = "audio";
  audio.base.sense_power_w = 150e-6;
  audio.base.output_rate_bps = 64e3;
  audio.base.slot_weight = 2;
  net::SessionConfig kws;
  kws.macs_per_inference = 2'500'000;
  kws.bytes_per_inference = 2'000;  // one pass per quarter second of audio
  kws.model = "kws-dscnn";
  kws.weight_bytes = 22'604;
  audio.session = kws;
  core::NodeClassSpec bio;
  bio.base.name = "bio";
  bio.base.sense_power_w = 8e-6;
  bio.base.output_rate_bps = 5e3;

  core::FleetAxes axes;
  axes.node_counts = {3};
  axes.mixes = {{"audio+bio", {audio, bio}}};
  axes.batch_windows = {0, 4};
  axes.precisions = {nn::Precision::kF32, nn::Precision::kInt8};
  axes.seeds = {7};
  axes.duration_s = 1.0;
  return axes;
}

TEST(PrecisionFleet, CsvByteIdenticalAt1_2_8Threads) {
  const core::Fleet fleet(precision_axes());
  const core::SweepRunner serial(1);
  const std::string reference = core::fleet_results_csv(fleet.run(serial));
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const core::SweepRunner runner(threads);
    EXPECT_EQ(reference, core::fleet_results_csv(fleet.run(runner)))
        << "thread count " << threads;
  }
}

TEST(PrecisionFleet, Int8HubsDrawLessPowerThanF32Hubs) {
  // The precision axis must actually move the ledger: averaged over the
  // grid, int8 hubs (MAC energy discounted by int8_mac_energy_scale) draw
  // less power than f32 hubs. Means absorb the per-point seed jitter
  // (sibling points intentionally never share an RNG stream).
  const core::Fleet fleet(precision_axes());
  const core::SweepRunner runner(1);
  const std::vector<core::FleetPointResult> results = fleet.run(runner);
  double f32_power = 0.0, int8_power = 0.0;
  std::size_t f32_points = 0, int8_points = 0;
  for (const auto& r : results) {
    if (r.coord[core::kAxisPrecision] == 0) {
      f32_power += r.report.hub_power_w;
      ++f32_points;
    } else {
      int8_power += r.report.hub_power_w;
      ++int8_points;
    }
  }
  ASSERT_GT(f32_points, 0u);
  ASSERT_EQ(f32_points, int8_points);
  EXPECT_LT(int8_power / static_cast<double>(int8_points),
            f32_power / static_cast<double>(f32_points));
}

}  // namespace
}  // namespace iob
