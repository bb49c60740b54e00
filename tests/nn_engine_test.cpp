// Tests for the lowered, allocation-free inference engine (ISSUE 4): the
// blocked GEMM microkernel against naive references, bit-exactness of the
// GEMM-lowered layers vs the retained seed loops on all three zoo models
// (single + batched), workspace reuse across varying batch sizes, zero-copy
// batch spans, one-workspace-per-thread determinism under SweepRunner at
// 1/2/8 threads, the interposer-verified zero-allocation steady state, and
// the hub's execute-and-meter sessions.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "comm/tdma.hpp"
#include "comm/wir_link.hpp"
#include "common/alloc_interposer.hpp"  // defines global operator new/delete
#include "core/sweep_runner.hpp"
#include "net/network_sim.hpp"
#include "nn/conv.hpp"
#include "nn/gemm.hpp"
#include "nn/layers.hpp"
#include "nn/model.hpp"
#include "nn/model_zoo.hpp"
#include "nn/tensor.hpp"
#include "nn/workspace.hpp"
#include "sim/simulator.hpp"

namespace iob {
namespace {

std::atomic<std::uint64_t>& g_alloc_count = iob::alloc_interposer::new_calls;

using namespace iob::nn;

Model zoo_model(int idx) {
  return idx == 0 ? make_kws_dscnn() : idx == 1 ? make_ecg_cnn1d() : make_vww_micronet();
}

// ---- gemm_blocked -----------------------------------------------------------

void naive_gemm(std::int64_t M, std::int64_t N, std::int64_t K, const float* A, const float* B,
                const float* bias, float* C) {
  for (std::int64_t m = 0; m < M; ++m) {
    for (std::int64_t n = 0; n < N; ++n) {
      float acc = bias != nullptr ? bias[n] : 0.0f;
      for (std::int64_t k = 0; k < K; ++k) acc += A[m * K + k] * B[k * N + n];
      C[m * N + n] = acc;
    }
  }
}

TEST(GemmBlocked, HandComputed2x2) {
  // C = bias + A * B with A = [[1,2],[3,4]], B = [[5,6],[7,8]], bias = [10, 20].
  const float A[] = {1, 2, 3, 4};
  const float B[] = {5, 6, 7, 8};
  const float bias[] = {10, 20};
  float C[4] = {};
  gemm_blocked(2, 2, 2, A, B, bias, C);
  EXPECT_FLOAT_EQ(C[0], 10 + 1 * 5 + 2 * 7);
  EXPECT_FLOAT_EQ(C[1], 20 + 1 * 6 + 2 * 8);
  EXPECT_FLOAT_EQ(C[2], 10 + 3 * 5 + 4 * 7);
  EXPECT_FLOAT_EQ(C[3], 20 + 3 * 6 + 4 * 8);
}

TEST(GemmBlocked, MatchesNaiveBitExactAcrossShapes) {
  // Shapes straddle every code path: full 4x8 tiles, M/N remainders, K
  // larger than one cache block, N < kNr (all-edge), nullptr bias.
  const struct {
    std::int64_t M, N, K;
    bool with_bias;
  } cases[] = {{8, 16, 32, true},   {5, 9, 7, true},    {4, 8, 300, true},
               {1, 3, 11, false},   {13, 8, 260, true}, {4, 23, 5, true},
               {100, 2, 513, true}, {3, 40, 64, false}};
  for (const auto& c : cases) {
    std::vector<float> A(static_cast<std::size_t>(c.M * c.K)), B(static_cast<std::size_t>(c.K * c.N)),
        bias(static_cast<std::size_t>(c.N)), ref(static_cast<std::size_t>(c.M * c.N)),
        got(static_cast<std::size_t>(c.M * c.N));
    for (std::size_t i = 0; i < A.size(); ++i) A[i] = std::sin(static_cast<double>(i) * 0.37);
    for (std::size_t i = 0; i < B.size(); ++i) B[i] = std::cos(static_cast<double>(i) * 0.23);
    for (std::size_t i = 0; i < bias.size(); ++i) bias[i] = 0.1f * static_cast<float>(i);
    const float* bp = c.with_bias ? bias.data() : nullptr;
    naive_gemm(c.M, c.N, c.K, A.data(), B.data(), bp, ref.data());
    gemm_blocked(c.M, c.N, c.K, A.data(), B.data(), bp, got.data());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ref[i], got[i]) << "M=" << c.M << " N=" << c.N << " K=" << c.K << " i=" << i;
    }
  }
}

/// Restores full auto-dispatch however a tier test exits (an ASSERT returns early).
struct DispatchCapGuard {
  ~DispatchCapGuard() { set_dispatch_cap(-1); }
};

/// Log the widest f32 tier this host runs, which the top caps of a tier
/// sweep reach (cap 3 runs f32 as cap 2 does): a host without AVX-512 says
/// so, instead of passing on a lower tier silently.
void log_highest_f32_tier() {
#if !defined(__SSE2__)
  const char* tier = "scalar (no SSE2)";
#elif defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  const char* tier =
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") ? "2 (AVX-512F)"
      : __builtin_cpu_supports("avx")                                         ? "1 (AVX)"
                                                                              : "0 (SSE2)";
#else
  const char* tier = "0 (SSE2)";
#endif
  std::printf("[ info     ] highest f32 tier run on this host: %s\n", tier);
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(GemmBlocked, DispatchTiersBitIdenticalUnderForcedCaps) {
  // Cap 0 runs the SSE2 4x8 tile, cap 1 adds the AVX 4x16 tile, cap 2 adds
  // the AVX-512 4x32 tile, cap 3 (the int8 VNNI tier) runs f32 as cap 2
  // does, -1 is auto. N = 16 is one AVX tile, 32 and 64
  // are whole AVX-512 tiles, 24 is one AVX tile plus one SSE2 tile, 35
  // leaves a scalar column edge; 48, 56 and 61 chain the tiers in one strip
  // (32 + 16; 32 + 16 + 8; 32 + 16 + 8 + 5 scalar columns). M = 7 leaves a
  // row edge; K = 300 crosses kKc, so the second K block re-loads its
  // partial sums from C. A tier the host lacks stays off at every cap.
  const struct {
    std::int64_t N, K;
    bool with_bias;
  } shapes[] = {{16, 40, true},   {24, 300, true},   {35, 300, false}, {64, 19, true},
                {64, 300, false}, {32, 40, true},    {32, 300, false}, {48, 40, false},
                {48, 300, true},  {56, 40, true},    {56, 300, false}, {61, 40, false},
                {61, 300, true}};
  const std::int64_t M = 7;
  log_highest_f32_tier();
  DispatchCapGuard guard;
  for (const auto& sh : shapes) {
    std::vector<float> A(static_cast<std::size_t>(M * sh.K)),
        B(static_cast<std::size_t>(sh.K * sh.N)), bias(static_cast<std::size_t>(sh.N)),
        plain(static_cast<std::size_t>(M * sh.N));
    for (std::size_t i = 0; i < A.size(); ++i) A[i] = std::sin(static_cast<double>(i) * 0.37);
    for (std::size_t i = 0; i < B.size(); ++i) B[i] = std::cos(static_cast<double>(i) * 0.23);
    for (std::size_t i = 0; i < bias.size(); ++i) bias[i] = 0.1f * static_cast<float>(i) - 1.5f;
    const float* bp = sh.with_bias ? bias.data() : nullptr;
    naive_gemm(M, sh.N, sh.K, A.data(), B.data(), bp, plain.data());
    for (const float cap : {-1.0f, 0.0f, 6.0f}) {  // -1 = no tail
      GemmTail tail;
      if (cap >= 0.0f) {
        tail.kind = GemmTail::Kind::kRelu;
        tail.cap = cap;
      }
      std::vector<std::vector<float>> outs;
      for (const int tier : {0, 1, 2, 3, -1}) {
        set_dispatch_cap(tier);
        outs.emplace_back(plain.size());
        gemm_blocked(M, sh.N, sh.K, A.data(), B.data(), bp, outs.back().data(), tail);
      }
      for (std::size_t i = 0; i < plain.size(); ++i) {
        float want = plain[i];
        if (cap >= 0.0f) want = std::max(0.0f, want);
        if (cap > 0.0f) want = std::min(cap, want);
        ASSERT_EQ(outs[0][i], want) << "N=" << sh.N << " K=" << sh.K << " cap " << cap
                                    << " i=" << i;
      }
      for (std::size_t t = 1; t < outs.size(); ++t) {
        EXPECT_TRUE(same_bits(outs[0], outs[t]))
            << "N=" << sh.N << " K=" << sh.K << " cap " << cap << " tier index " << t;
      }
    }
  }

  // Whole models: every conv (non-pointwise ones after im2col_nhwc) and FC
  // layer of the zoo runs through gemm_blocked, so the batched outputs must
  // match the seed loops bit for bit at every cap.
  for (int idx = 0; idx < 3; ++idx) {
    const Model m = zoo_model(idx);
    std::vector<Tensor> inputs;
    for (int s = 0; s < 5; ++s) inputs.push_back(patterned_tensor(m.input_shape(), s));
    const Tensor stacked = stack_batch(inputs);
    const Tensor ref = m.run_batched_reference(stacked);
    std::vector<std::vector<float>> outs;
    for (const int tier : {0, 1, 2, 3, -1}) {
      set_dispatch_cap(tier);
      const Tensor out = m.run_batched(stacked);
      EXPECT_EQ(out.max_abs_diff(ref), 0.0) << m.name() << " tier " << tier;
      outs.emplace_back(out.data(), out.data() + out.size());
    }
    for (std::size_t t = 1; t < outs.size(); ++t) {
      EXPECT_TRUE(same_bits(outs[0], outs[t])) << m.name() << " tier index " << t;
    }
  }
}

// ---- fused relu GEMM tail ---------------------------------------------------

TEST(GemmTailFusion, ReluTailBitExactVsSeparatePass) {
  const std::int64_t M = 7, N = 19, K = 33;
  std::vector<float> A(static_cast<std::size_t>(M * K)), B(static_cast<std::size_t>(K * N)),
      bias(static_cast<std::size_t>(N));
  for (std::size_t i = 0; i < A.size(); ++i) A[i] = std::sin(static_cast<double>(i) * 0.31);
  for (std::size_t i = 0; i < B.size(); ++i) B[i] = std::cos(static_cast<double>(i) * 0.17);
  for (std::size_t i = 0; i < bias.size(); ++i) bias[i] = 0.1f * static_cast<float>(i) - 0.9f;
  std::vector<float> plain(static_cast<std::size_t>(M * N)), fused(plain.size());
  gemm_blocked(M, N, K, A.data(), B.data(), bias.data(), plain.data());

  for (const float cap : {0.0f, 6.0f}) {
    GemmTail relu;
    relu.kind = GemmTail::Kind::kRelu;
    relu.cap = cap;
    gemm_blocked(M, N, K, A.data(), B.data(), bias.data(), fused.data(), relu);
    for (std::size_t i = 0; i < plain.size(); ++i) {
      float want = std::max(0.0f, plain[i]);
      if (cap > 0.0f) want = std::min(cap, want);
      ASSERT_EQ(fused[i], want) << "cap " << cap << " i " << i;
    }
  }
}

TEST(GemmTailFusion, ModelChainFusesAndStaysBitExactVsReference) {
  // fc -> relu6 -> fc -> relu: two fused pairs. run_into (which fuses)
  // must equal the seed-loop oracle.
  WeightGen gen(77);
  Model m("fused-chain", Shape{10});
  m.add(std::make_unique<FullyConnected>(10, 24, gen.weights(240, 10), gen.biases(24)));
  m.add(std::make_unique<Relu>(6.0f));
  m.add(std::make_unique<FullyConnected>(24, 5, gen.weights(120, 24), gen.biases(5)));
  m.add(std::make_unique<Relu>());

  for (const int batch : {1, 3}) {
    std::vector<Tensor> inputs;
    for (int s = 0; s < batch; ++s) inputs.push_back(patterned_tensor(Shape{10}, 60 + s));
    const Tensor stacked = stack_batch(inputs);
    const Tensor ref = m.run_batched_reference(stacked);
    Workspace ws;
    const ConstSpan out = m.run_into(ws, stacked.data(), batch);
    ASSERT_EQ(out.size, ref.size());
    EXPECT_EQ(max_abs_diff(out, ConstSpan{ref.data(), ref.size()}), 0.0) << "batch " << batch;
  }
}

TEST(GemmTailFusion, RangeSplitInsideAFusedPairStaysExact)  {
  // A layer-range boundary between producer and tail must suppress the
  // fusion (the tail belongs to the other side of the split).
  WeightGen gen(78);
  Model m("split-chain", Shape{8});
  m.add(std::make_unique<FullyConnected>(8, 12, gen.weights(96, 8), gen.biases(12)));
  m.add(std::make_unique<Relu>());
  const Tensor x = patterned_tensor(Shape{8}, 9);
  const Tensor full = m.forward_reference(x);
  Workspace ws;
  const ConstSpan head = m.run_range_into(ws, x.data(), 1, 0, 1);  // fc only
  const std::vector<float> h(head.data, head.data + head.size);
  const ConstSpan tail = m.run_range_into(ws, h.data(), 1, 1, 2);  // relu only
  ASSERT_EQ(tail.size, full.size());
  EXPECT_EQ(max_abs_diff(tail, ConstSpan{full.data(), full.size()}), 0.0);
}

// ---- f32 depthwise step -----------------------------------------------------

TEST(DwConvF32, LoweredMatchesSeedLoopBitwiseAtEveryCap) {
  // Per pixel, the kernel holds blocks of up to 8 vectors of the widest f32
  // tier in registers, then one block of each smaller power of two, then a
  // scalar remainder: c = 3 is the remainder alone, 8, 12 and 19 mix vector
  // blocks (SSE2 and AVX widths differ) with a scalar remainder, 64 and 128
  // run whole 8-vector blocks. A 1-pixel-wide or 1-pixel-tall input makes
  // every output pixel an edge pixel, with out-of-range taps on both sides.
  log_highest_f32_tier();
  DispatchCapGuard guard;
  WeightGen gen(91);
  const struct {
    int h, w;
  } spatial[] = {{7, 6}, {9, 1}, {1, 9}, {1, 1}};
  const int batch = 2;
  int salt = 0;
  for (const int c : {3, 8, 12, 19, 64, 128}) {
    for (const int k : {3, 5}) {
      for (const int stride : {1, 2}) {
        for (const Padding pad : {Padding::kSame, Padding::kValid}) {
          for (const auto& sp : spatial) {
            if (pad == Padding::kValid && (sp.h < k || sp.w < k)) continue;
            const DepthwiseConv2D dw(c, k, stride, pad,
                                     gen.weights(static_cast<std::size_t>(c) * k * k, k * k),
                                     gen.biases(static_cast<std::size_t>(c)));
            const Shape in_shape{sp.h, sp.w, c};
            std::vector<Tensor> samples;
            for (int s = 0; s < batch; ++s) samples.push_back(patterned_tensor(in_shape, ++salt));
            const Tensor stacked = stack_batch(samples);
            const Tensor ref = dw.forward_batched_reference(stacked, batch);
            for (const int tier : {0, 1, 2, 3, -1}) {
              set_dispatch_cap(tier);
              Workspace ws;
              std::vector<float> out(static_cast<std::size_t>(ref.size()), -7.0f);
              dw.forward_into(stacked.data(), in_shape, batch, out.data(), ws);
              EXPECT_EQ(std::memcmp(out.data(), ref.data(), out.size() * sizeof(float)), 0)
                  << "c " << c << " k " << k << " stride " << stride << " "
                  << (pad == Padding::kSame ? "same" : "valid") << " " << sp.h << "x" << sp.w
                  << " tier " << tier;
            }
          }
        }
      }
    }
  }
}

TEST(DwConvF32, ModelFusesTheFollowingReluBitExactAtEveryCap) {
  // dwconv -> relu -> dwconv (stride 2) -> relu: both pairs run as one fused
  // hop in `run_into`; the seed loops run every layer on its own. Cap 0 is
  // the uncapped Relu of the DS blocks, 6 the Relu6 VWW's stem uses; c = 19
  // leaves the fused relu to the scalar remainder too.
  log_highest_f32_tier();
  DispatchCapGuard guard;
  for (const float cap : {0.0f, 6.0f}) {
    for (const int c : {12, 19, 64}) {
      WeightGen gen(92);
      Model m("dw-relu", Shape{6, 5, c});
      const auto wcount = static_cast<std::size_t>(c) * 9;
      m.add(std::make_unique<DepthwiseConv2D>(c, 3, 1, Padding::kSame, gen.weights(wcount, 9),
                                              gen.biases(static_cast<std::size_t>(c))));
      m.add(std::make_unique<Relu>(cap));
      m.add(std::make_unique<DepthwiseConv2D>(c, 3, 2, Padding::kSame, gen.weights(wcount, 9),
                                              gen.biases(static_cast<std::size_t>(c))));
      m.add(std::make_unique<Relu>(cap));
      std::vector<Tensor> inputs;
      for (int s = 0; s < 3; ++s) inputs.push_back(patterned_tensor(m.input_shape(), 40 + s));
      const Tensor stacked = stack_batch(inputs);
      const Tensor ref = m.run_batched_reference(stacked);
      for (const int tier : {0, 1, 2, 3, -1}) {
        set_dispatch_cap(tier);
        const Tensor out = m.run_batched(stacked);
        ASSERT_EQ(out.size(), ref.size());
        EXPECT_EQ(std::memcmp(out.data(), ref.data(), static_cast<std::size_t>(out.size()) * 4), 0)
            << "cap " << cap << " c " << c << " tier " << tier;
      }
    }
  }
}

// ---- zero-copy batch spans --------------------------------------------------

TEST(BatchSpan, ViewsAliasTheBatchedStorage) {
  std::vector<Tensor> samples;
  for (int s = 0; s < 3; ++s) samples.push_back(patterned_tensor(Shape{4, 5}, s));
  const Tensor batched = stack_batch(samples);
  for (int s = 0; s < 3; ++s) {
    const ConstSpan v = batched.batch_span(s);
    EXPECT_EQ(v.data, batched.data() + s * 20);  // zero-copy: same storage
    EXPECT_EQ(v.size, 20);
    EXPECT_EQ(max_abs_diff(v, ConstSpan{samples[static_cast<std::size_t>(s)].data(), 20}), 0.0);
  }
  EXPECT_THROW(static_cast<void>(batched.batch_span(3)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(Tensor(Shape{4}).batch_span(0)), std::invalid_argument);
}

TEST(BatchSpan, FromDataRoundTrip) {
  const Tensor src = patterned_tensor(Shape{2, 3}, 7);
  const Tensor copy = Tensor::from_data(src.shape(), src.data());
  EXPECT_EQ(copy.max_abs_diff(src), 0.0);
}

// ---- bit-exactness: lowered engine vs seed loops on the zoo -----------------

TEST(LoweredEngine, ZooModelsBitExactSingleInference) {
  for (int idx = 0; idx < 3; ++idx) {
    const Model m = zoo_model(idx);
    const Tensor x = patterned_tensor(m.input_shape(), idx);
    const Tensor ref = m.forward_reference(x);  // seed nested loops
    EXPECT_EQ(m.forward(x).max_abs_diff(ref), 0.0) << m.name();
    Workspace ws;
    const ConstSpan out = m.run_into(ws, x.data(), 1);
    ASSERT_EQ(out.size, ref.size()) << m.name();
    EXPECT_EQ(max_abs_diff(out, ConstSpan{ref.data(), ref.size()}), 0.0) << m.name();
  }
}

TEST(LoweredEngine, ZooModelsBitExactBatched) {
  for (int idx = 0; idx < 3; ++idx) {
    const Model m = zoo_model(idx);
    constexpr int kBatch = 4;
    std::vector<Tensor> inputs;
    for (int s = 0; s < kBatch; ++s) inputs.push_back(patterned_tensor(m.input_shape(), s));
    const Tensor stacked = stack_batch(inputs);
    const Tensor ref = m.run_batched_reference(stacked);  // seed batched loops
    EXPECT_EQ(m.run_batched(stacked).max_abs_diff(ref), 0.0) << m.name();
  }
}

TEST(LoweredEngine, RunRangeIntoComposesAtEverySplit) {
  // [0, k) then [k, n) must equal the unsplit fused run, and the seed loops,
  // bit for bit at every k. KWS and VWW cut between a depthwise conv and its
  // relu somewhere, so the prefix runs the conv unfused and the suffix
  // starts with the relu.
  for (int idx = 0; idx < 3; ++idx) {
    const Model m = zoo_model(idx);
    const std::size_t n = m.layer_count();
    constexpr int kBatch = 2;
    std::vector<Tensor> inputs;
    for (int s = 0; s < kBatch; ++s) inputs.push_back(patterned_tensor(m.input_shape(), 20 + s));
    const Tensor x = stack_batch(inputs);
    const Tensor ref = m.run_batched_reference(x);
    Workspace ws;
    const ConstSpan whole_span = m.run_into(ws, x.data(), kBatch);
    const std::vector<float> whole(whole_span.data, whole_span.data + whole_span.size);
    ASSERT_EQ(whole.size(), static_cast<std::size_t>(ref.size())) << m.name();
    EXPECT_EQ(std::memcmp(whole.data(), ref.data(), whole.size() * sizeof(float)), 0) << m.name();
    int dw_relu_cuts = 0;
    for (std::size_t k = 0; k <= n; ++k) {
      if (k > 0 && k < n && dynamic_cast<const DepthwiseConv2D*>(&m.layer(k - 1)) != nullptr &&
          dynamic_cast<const Relu*>(&m.layer(k)) != nullptr) {
        ++dw_relu_cuts;
      }
      const ConstSpan head = m.run_range_into(ws, x.data(), kBatch, 0, k);
      // Copy the head out: the tail pass reuses the same workspace.
      const std::vector<float> h(head.data, head.data + head.size);
      const ConstSpan tail = m.run_range_into(ws, h.data(), kBatch, k, n);
      ASSERT_EQ(static_cast<std::size_t>(tail.size), whole.size()) << m.name() << " k " << k;
      EXPECT_EQ(std::memcmp(tail.data, whole.data(), whole.size() * sizeof(float)), 0)
          << m.name() << " split at " << k;
    }
    EXPECT_EQ(dw_relu_cuts > 0, idx != 1) << m.name();
  }
}

// ---- workspace reuse --------------------------------------------------------

TEST(WorkspaceReuse, VaryingBatchSizesShareOneWorkspace) {
  const Model m = zoo_model(0);  // kws
  Workspace ws;
  ws.configure(m, 8);
  const std::int64_t act_cap = ws.activation_capacity();
  const std::int64_t col_cap = ws.im2col_capacity();
  EXPECT_GE(act_cap, m.max_activation_elems() * 8);
  for (const int batch : {4, 1, 8, 2, 8}) {
    std::vector<Tensor> inputs;
    for (int s = 0; s < batch; ++s) inputs.push_back(patterned_tensor(m.input_shape(), batch + s));
    const Tensor stacked = stack_batch(inputs);
    const ConstSpan out = m.run_into(ws, stacked.data(), batch);
    const Tensor ref = m.run_batched_reference(stacked);
    EXPECT_EQ(max_abs_diff(out, ConstSpan{ref.data(), ref.size()}), 0.0) << "batch " << batch;
    // Grow-only: shrinking the batch must never resize the arena.
    EXPECT_EQ(ws.activation_capacity(), act_cap) << "batch " << batch;
    EXPECT_EQ(ws.im2col_capacity(), col_cap) << "batch " << batch;
  }
}

TEST(WorkspaceReuse, StagedInputSurvivesArenaGrowth) {
  // The documented aliasing contract: samples staged into ws.ping() must
  // survive run_into's internal configure even when it reallocates the
  // arena (here: staged under the small ECG sizing, then run through the
  // larger KWS model, which grows the buffers).
  const Model small = zoo_model(1);  // ecg
  const Model big = zoo_model(0);    // kws
  ASSERT_GT(big.max_activation_elems(), small.max_activation_elems());
  Workspace ws;
  ws.configure(small, 1);
  const Tensor x = patterned_tensor(big.input_shape(), 21);
  ASSERT_LE(x.size(), ws.activation_capacity());  // staging fits pre-growth
  std::copy(x.data(), x.data() + x.size(), ws.ping());
  const ConstSpan out = big.run_into(ws, ws.ping(), 1);
  const Tensor ref = big.forward_reference(x);
  EXPECT_EQ(max_abs_diff(out, ConstSpan{ref.data(), ref.size()}), 0.0);
}

TEST(WorkspaceReuse, GrowsAcrossModelsAndStaysExact) {
  // One workspace serving all three models (the hub's situation): buffers
  // grow to the high-water mark; results stay bit-exact for each model.
  Workspace ws;
  for (int idx = 0; idx < 3; ++idx) {
    const Model m = zoo_model(idx);
    const Tensor x = patterned_tensor(m.input_shape(), 11 + idx);
    const Tensor ref = m.forward_reference(x);
    const ConstSpan out = m.run_into(ws, x.data(), 1);
    EXPECT_EQ(max_abs_diff(out, ConstSpan{ref.data(), ref.size()}), 0.0) << m.name();
  }
}

// ---- zero-allocation steady state -------------------------------------------

TEST(ZeroAllocation, SteadyStateInferenceLoopNeverTouchesTheHeap) {
  const Model models[] = {zoo_model(0), zoo_model(1), zoo_model(2)};
  Workspace ws;
  std::vector<Tensor> inputs;
  std::vector<Tensor> batched;
  for (const Model& m : models) {
    inputs.push_back(patterned_tensor(m.input_shape(), 5));
    Shape bshape{4};
    bshape.insert(bshape.end(), m.input_shape().begin(), m.input_shape().end());
    batched.push_back(patterned_tensor(bshape, 6));
    ws.configure(m, 4);
  }
  // Warm-up: first passes may still grow the arena to its high-water mark.
  for (std::size_t i = 0; i < 3; ++i) {
    models[i].run_into(ws, inputs[i].data(), 1);
    models[i].run_into(ws, batched[i].data(), 4);
  }
  const std::uint64_t before = g_alloc_count.load();
  float sink = 0.0f;
  for (int rep = 0; rep < 20; ++rep) {
    for (std::size_t i = 0; i < 3; ++i) {
      sink += models[i].run_into(ws, inputs[i].data(), 1)[0];
      sink += models[i].run_into(ws, batched[i].data(), 4)[0];
    }
  }
  const std::uint64_t allocs = g_alloc_count.load() - before;
  EXPECT_TRUE(std::isfinite(sink));
  EXPECT_EQ(allocs, 0u) << "steady-state inference loop performed heap allocations";
}

// ---- one-workspace-per-thread determinism under SweepRunner -----------------

TEST(SweepDeterminism, InferenceResultsByteIdenticalAt1_2_8Threads) {
  // Each sweep point runs a batched pass through the shared const model on
  // its worker thread's thread-local workspace (via run_batched). The
  // merged output must be byte-identical at every thread count.
  const Model m = zoo_model(0);
  constexpr std::size_t kPoints = 12;
  const auto point = [&m](std::size_t i) {
    std::vector<Tensor> inputs;
    for (int s = 0; s < 3; ++s) {
      inputs.push_back(patterned_tensor(m.input_shape(), static_cast<int>(i) * 3 + s));
    }
    const Tensor out = m.run_batched(stack_batch(inputs));
    return std::vector<float>(out.data(), out.data() + out.size());
  };
  const core::SweepRunner serial(1);
  const std::vector<std::vector<float>> reference =
      serial.map<std::vector<float>>(kPoints, point);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const core::SweepRunner runner(threads);
    const std::vector<std::vector<float>> got =
        runner.map<std::vector<float>>(kPoints, point);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < kPoints; ++i) {
      ASSERT_EQ(got[i].size(), reference[i].size()) << "point " << i;
      for (std::size_t j = 0; j < got[i].size(); ++j) {
        ASSERT_EQ(got[i][j], reference[i][j])
            << "thread count " << threads << " point " << i << " elem " << j;
      }
    }
  }
}

// ---- hub execute-and-meter --------------------------------------------------

net::SessionStats run_metered(bool execute, unsigned batch_window, const Model* net_model) {
  net::NetworkConfig cfg;
  cfg.seed = 11;
  cfg.hub.batch_window = batch_window;
  cfg.hub.execute_and_meter = execute;
  net::NetworkSim net(std::make_unique<comm::WiRLink>(), cfg);
  net::NodeConfig n;
  n.name = "ecg-patch";
  n.stream = "ecg";
  n.output_rate_bps = 64e3;
  n.frame_bytes = 240;
  net.add_node(n);
  net::SessionConfig s;
  s.stream = "ecg";
  s.macs_per_inference = 185'000;
  s.bytes_per_inference = 240;
  s.model = "ecg-cnn1d";
  s.weight_bytes = 9'000;
  s.net = net_model;
  net.add_session(s);
  net.run(1.0);
  return net.hub().session("ecg");
}

TEST(ExecuteAndMeter, DerivesComputeEnergyFromMeasuredKernelTime) {
  const Model ecg = make_ecg_cnn1d();
  for (const unsigned window : {0u, 4u}) {
    const net::SessionStats st = run_metered(true, window, &ecg);
    ASSERT_GT(st.inferences, 10u) << "window " << window;
    EXPECT_EQ(st.executed_inferences, st.inferences) << "window " << window;
    EXPECT_GT(st.kernel_time_s, 0.0) << "window " << window;
    // Energy is exactly measured time x platform power.
    const net::HubConfig defaults;
    EXPECT_DOUBLE_EQ(st.compute_energy_j, st.kernel_time_s * defaults.compute_power_w)
        << "window " << window;
    // The analytic model keeps accruing alongside and differs from the
    // measured number (it never consults the clock).
    EXPECT_GT(st.analytic_compute_energy_j, 0.0) << "window " << window;
    EXPECT_NE(st.compute_energy_j, st.analytic_compute_energy_j) << "window " << window;
  }
}

TEST(ExecuteAndMeter, AnalyticFieldMatchesUnmeteredRunBitExactly) {
  const Model ecg = make_ecg_cnn1d();
  for (const unsigned window : {0u, 4u}) {
    const net::SessionStats plain = run_metered(false, window, nullptr);
    const net::SessionStats metered = run_metered(true, window, &ecg);
    ASSERT_GT(plain.inferences, 10u);
    EXPECT_EQ(plain.inferences, metered.inferences);
    // The analytic ledger is identical with and without metering, and on
    // the analytic path it equals compute_energy_j bit-for-bit.
    EXPECT_EQ(plain.analytic_compute_energy_j, metered.analytic_compute_energy_j);
    EXPECT_EQ(plain.compute_energy_j, plain.analytic_compute_energy_j);
    EXPECT_EQ(plain.executed_inferences, 0u);
    EXPECT_EQ(plain.kernel_time_s, 0.0);
  }
}

TEST(ExecuteAndMeter, SessionsWithoutModelsStayAnalyticUnderMetering) {
  const net::SessionStats st = run_metered(true, 4, nullptr);
  ASSERT_GT(st.inferences, 10u);
  EXPECT_EQ(st.executed_inferences, 0u);
  EXPECT_EQ(st.kernel_time_s, 0.0);
  EXPECT_EQ(st.compute_energy_j, st.analytic_compute_energy_j);
}

TEST(ExecuteAndMeter, MixedModelGroupMetersOnlySessionsWithNets) {
  // Two sessions share a model tag (one batched group), but only "a"
  // carries an executable net: the group's flush must meter "a" alone and
  // keep "b" on the analytic ledger.
  const Model ecg = make_ecg_cnn1d();
  net::NetworkConfig cfg;
  cfg.seed = 11;
  cfg.hub.batch_window = 4;
  cfg.hub.execute_and_meter = true;
  net::NetworkSim sim(std::make_unique<comm::WiRLink>(), cfg);
  for (const char* name : {"a", "b"}) {
    net::NodeConfig n;
    n.name = name;
    n.stream = name;
    n.output_rate_bps = 64e3;
    n.frame_bytes = 240;
    sim.add_node(n);
    net::SessionConfig s;
    s.stream = name;
    s.macs_per_inference = 185'000;
    s.bytes_per_inference = 240;
    s.model = "ecg-cnn1d";
    s.weight_bytes = 9'000;
    s.net = name[0] == 'a' ? &ecg : nullptr;
    sim.add_session(s);
  }
  sim.run(1.0);
  const net::SessionStats& a = sim.hub().session("a");
  const net::SessionStats& b = sim.hub().session("b");
  ASSERT_GT(a.inferences, 10u);
  ASSERT_GT(b.inferences, 10u);
  EXPECT_EQ(a.executed_inferences, a.inferences);
  EXPECT_GT(a.kernel_time_s, 0.0);
  const net::HubConfig defaults;
  EXPECT_DOUBLE_EQ(a.compute_energy_j, a.kernel_time_s * defaults.compute_power_w);
  EXPECT_EQ(b.executed_inferences, 0u);
  EXPECT_EQ(b.kernel_time_s, 0.0);
  EXPECT_EQ(b.compute_energy_j, b.analytic_compute_energy_j);
}

}  // namespace
}  // namespace iob
