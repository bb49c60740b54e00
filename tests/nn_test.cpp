// Unit tests for src/nn: tensor mechanics, every layer against
// hand-computed references, model chaining/profiling, quantization bounds,
// and the reference model zoo.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>

#include "nn/conv.hpp"
#include "nn/layers.hpp"
#include "nn/model.hpp"
#include "nn/model_zoo.hpp"
#include "nn/quantize.hpp"
#include "nn/tensor.hpp"
#include "nn/workspace.hpp"

namespace iob::nn {
namespace {

// ---- Tensor -------------------------------------------------------------------

TEST(Tensor, ShapeAndSize) {
  Tensor t(Shape{2, 3, 4});
  EXPECT_EQ(t.rank(), 3);
  EXPECT_EQ(t.size(), 24);
  EXPECT_EQ(t.bytes(), 96);
}

TEST(Tensor, RowMajorIndexing) {
  Tensor t(Shape{2, 3});
  t.at(1, 2) = 7.0f;
  EXPECT_FLOAT_EQ(t[5], 7.0f);
  t.at(0, 0) = 1.0f;
  EXPECT_FLOAT_EQ(t[0], 1.0f);
}

TEST(Tensor, BoundsChecked) {
  Tensor t(Shape{2, 3});
  EXPECT_THROW(t.at(2, 0), std::invalid_argument);
  EXPECT_THROW(t.at(0, 0, 0), std::invalid_argument);  // wrong rank
}

TEST(Tensor, MaxAbsDiff) {
  Tensor a(Shape{3}), b(Shape{3});
  a[0] = 1.0f;
  b[0] = 1.5f;
  EXPECT_NEAR(a.max_abs_diff(b), 0.5, 1e-7);
}

// ---- FullyConnected --------------------------------------------------------------

TEST(FullyConnected, HandComputed) {
  // y = W x + b with W = [[1,2],[3,4]], b = [0.5, -0.5], x = [1, -1].
  FullyConnected fc(2, 2, {1, 2, 3, 4}, {0.5f, -0.5f});
  Tensor x(Shape{2});
  x[0] = 1.0f;
  x[1] = -1.0f;
  const Tensor y = fc.forward(x);
  EXPECT_FLOAT_EQ(y[0], 1.0f - 2.0f + 0.5f);
  EXPECT_FLOAT_EQ(y[1], 3.0f - 4.0f - 0.5f);
}

TEST(FullyConnected, MacsAndParams) {
  FullyConnected fc(64, 12, std::vector<float>(768, 0.0f), std::vector<float>(12, 0.0f));
  EXPECT_EQ(fc.macs(Shape{64}), 768u);
  EXPECT_EQ(fc.param_count(), 768u + 12u);
}

TEST(FullyConnected, AcceptsFlattenedMultiDimInput) {
  FullyConnected fc(6, 1, std::vector<float>(6, 1.0f), {0.0f});
  Tensor x(Shape{2, 3}, 1.0f);
  const Tensor y = fc.forward(x);
  EXPECT_FLOAT_EQ(y[0], 6.0f);
}

TEST(FullyConnected, RejectsSizeMismatch) {
  EXPECT_THROW(FullyConnected(2, 2, {1, 2, 3}, {0, 0}), std::invalid_argument);
  FullyConnected fc(2, 1, {1, 1}, {0});
  EXPECT_THROW(fc.forward(Tensor(Shape{3})), std::invalid_argument);
}

// ---- Activations / pooling --------------------------------------------------------

TEST(Relu, ClampsNegatives) {
  Relu relu;
  Tensor x(Shape{3});
  x[0] = -1.0f;
  x[1] = 0.0f;
  x[2] = 2.0f;
  const Tensor y = relu.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
}

TEST(Relu, SixCap) {
  Relu relu6(6.0f);
  Tensor x(Shape{2});
  x[0] = 10.0f;
  x[1] = 3.0f;
  const Tensor y = relu6.forward(x);
  EXPECT_FLOAT_EQ(y[0], 6.0f);
  EXPECT_FLOAT_EQ(y[1], 3.0f);
}

TEST(GlobalAvgPool, AveragesPerChannel) {
  GlobalAvgPool gap;
  Tensor x(Shape{2, 2, 2});
  // channel 0: 1,2,3,4 -> 2.5; channel 1: 10 everywhere -> 10.
  x.at(0, 0, 0) = 1.0f;
  x.at(0, 1, 0) = 2.0f;
  x.at(1, 0, 0) = 3.0f;
  x.at(1, 1, 0) = 4.0f;
  x.at(0, 0, 1) = x.at(0, 1, 1) = x.at(1, 0, 1) = x.at(1, 1, 1) = 10.0f;
  const Tensor y = gap.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2}));
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  EXPECT_FLOAT_EQ(y[1], 10.0f);
}

TEST(Softmax, SumsToOneAndOrders) {
  Softmax sm;
  Tensor x(Shape{3});
  x[0] = 1.0f;
  x[1] = 3.0f;
  x[2] = 2.0f;
  const Tensor y = sm.forward(x);
  EXPECT_NEAR(y[0] + y[1] + y[2], 1.0, 1e-6);
  EXPECT_GT(y[1], y[2]);
  EXPECT_GT(y[2], y[0]);
}

TEST(Softmax, StableForLargeLogits) {
  Softmax sm;
  Tensor x(Shape{2});
  x[0] = 1000.0f;
  x[1] = 1001.0f;
  const Tensor y = sm.forward(x);
  EXPECT_NEAR(y[0] + y[1], 1.0, 1e-6);
  EXPECT_GT(y[1], y[0]);
}

// ---- Conv2D ------------------------------------------------------------------------

TEST(Conv2D, IdentityKernel) {
  // 1x1 kernel with weight 1: output == input.
  Conv2D conv(1, 1, 1, 1, 1, 1, Padding::kValid, {1.0f}, {0.0f});
  Tensor x(Shape{3, 3, 1});
  for (int i = 0; i < 9; ++i) x[i] = static_cast<float>(i);
  const Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (Shape{3, 3, 1}));
  for (int i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(y[i], static_cast<float>(i));
}

TEST(Conv2D, BoxFilterHandComputed) {
  // 2x2 all-ones valid conv over a known 3x3 input.
  Conv2D conv(1, 1, 2, 2, 1, 1, Padding::kValid, {1, 1, 1, 1}, {0.0f});
  Tensor x(Shape{3, 3, 1});
  for (int i = 0; i < 9; ++i) x[i] = static_cast<float>(i + 1);  // 1..9
  const Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 2, 1}));
  EXPECT_FLOAT_EQ(y.at(0, 0, 0), 1 + 2 + 4 + 5);
  EXPECT_FLOAT_EQ(y.at(0, 1, 0), 2 + 3 + 5 + 6);
  EXPECT_FLOAT_EQ(y.at(1, 0, 0), 4 + 5 + 7 + 8);
  EXPECT_FLOAT_EQ(y.at(1, 1, 0), 5 + 6 + 8 + 9);
}

TEST(Conv2D, SamePaddingPreservesShapeAtStride1) {
  Conv2D conv(1, 4, 3, 3, 1, 1, Padding::kSame, std::vector<float>(36, 0.1f),
              std::vector<float>(4, 0.0f));
  EXPECT_EQ(conv.output_shape(Shape{7, 5, 1}), (Shape{7, 5, 4}));
}

TEST(Conv2D, SamePaddingCeilDivAtStride2) {
  Conv2D conv(1, 2, 3, 3, 2, 2, Padding::kSame, std::vector<float>(18, 0.1f),
              std::vector<float>(2, 0.0f));
  EXPECT_EQ(conv.output_shape(Shape{7, 7, 1}), (Shape{4, 4, 2}));
}

TEST(Conv2D, MultiChannelAccumulation) {
  // 1x1 conv over 2 channels with weights (2, 3): y = 2*c0 + 3*c1 + 1.
  Conv2D conv(2, 1, 1, 1, 1, 1, Padding::kValid, {2.0f, 3.0f}, {1.0f});
  Tensor x(Shape{1, 1, 2});
  x.at(0, 0, 0) = 5.0f;
  x.at(0, 0, 1) = 7.0f;
  EXPECT_FLOAT_EQ(conv.forward(x)[0], 2 * 5 + 3 * 7 + 1);
}

TEST(Conv2D, MacFormula) {
  Conv2D conv(3, 8, 3, 3, 1, 1, Padding::kSame, std::vector<float>(8 * 9 * 3, 0.0f),
              std::vector<float>(8, 0.0f));
  // out 4x4x8, kernel 3x3x3.
  EXPECT_EQ(conv.macs(Shape{4, 4, 3}), 4u * 4 * 8 * 3 * 3 * 3);
}

TEST(Conv2D, ZeroPaddingContributesNothing) {
  // All-ones 3x3 kernel, same padding: corner output sums only the 4 valid
  // taps of a constant-1 input.
  Conv2D conv(1, 1, 3, 3, 1, 1, Padding::kSame, std::vector<float>(9, 1.0f), {0.0f});
  Tensor x(Shape{3, 3, 1}, 1.0f);
  const Tensor y = conv.forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0), 4.0f);  // corner
  EXPECT_FLOAT_EQ(y.at(1, 1, 0), 9.0f);  // center
  EXPECT_FLOAT_EQ(y.at(0, 1, 0), 6.0f);  // edge
}

// ---- DepthwiseConv2D -----------------------------------------------------------------

TEST(DepthwiseConv2D, PerChannelIndependence) {
  // 1x1 depthwise with weights (2, 10): channels scale independently.
  DepthwiseConv2D dw(2, 1, 1, Padding::kValid, {2.0f, 10.0f}, {0.0f, 0.0f});
  Tensor x(Shape{1, 1, 2});
  x.at(0, 0, 0) = 3.0f;
  x.at(0, 0, 1) = 4.0f;
  const Tensor y = dw.forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0), 6.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 1), 40.0f);
}

TEST(DepthwiseConv2D, MacsScaleWithChannelsNotSquared) {
  DepthwiseConv2D dw(64, 3, 1, Padding::kSame, std::vector<float>(64 * 9, 0.0f),
                     std::vector<float>(64, 0.0f));
  EXPECT_EQ(dw.macs(Shape{10, 10, 64}), 10u * 10 * 64 * 9);
}

// ---- Conv1D ---------------------------------------------------------------------------

TEST(Conv1D, MovingSumHandComputed) {
  Conv1D conv(1, 1, 3, 1, Padding::kValid, {1, 1, 1}, {0.0f});
  Tensor x(Shape{5, 1});
  for (int i = 0; i < 5; ++i) x[i] = static_cast<float>(i + 1);
  const Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (Shape{3, 1}));
  EXPECT_FLOAT_EQ(y[0], 6.0f);
  EXPECT_FLOAT_EQ(y[1], 9.0f);
  EXPECT_FLOAT_EQ(y[2], 12.0f);
}

TEST(Conv1D, StrideAndSamePadding) {
  Conv1D conv(1, 2, 5, 2, Padding::kSame, std::vector<float>(10, 0.0f),
              std::vector<float>(2, 0.0f));
  EXPECT_EQ(conv.output_shape(Shape{360, 1}), (Shape{180, 2}));
}

// ---- Model ---------------------------------------------------------------------------

TEST(Model, ChainsShapesAndProfiles) {
  Model m("test", Shape{4, 4, 1});
  m.add(std::make_unique<Conv2D>(1, 2, 3, 3, 1, 1, Padding::kSame,
                                 std::vector<float>(18, 0.1f), std::vector<float>(2, 0.0f)));
  m.add(std::make_unique<Relu>());
  m.add(std::make_unique<GlobalAvgPool>());
  m.add(std::make_unique<FullyConnected>(2, 3, std::vector<float>(6, 0.1f),
                                         std::vector<float>(3, 0.0f)));
  EXPECT_EQ(m.layer_count(), 4u);
  EXPECT_EQ(m.profiles()[0].output_shape, (Shape{4, 4, 2}));
  EXPECT_EQ(m.profiles()[3].output_shape, (Shape{3}));
  EXPECT_EQ(m.profiles()[0].output_bytes_i8, 32);
  EXPECT_EQ(m.profiles()[0].output_bytes_f32, 128);
  EXPECT_GT(m.total_macs(), 0u);
  EXPECT_GT(m.total_params(), 0u);

  const Tensor y = m.forward(Tensor(Shape{4, 4, 1}, 1.0f));
  EXPECT_EQ(y.shape(), (Shape{3}));
}

TEST(Model, ForwardRangeComposition) {
  Model m = make_ecg_cnn1d();
  Tensor x(m.input_shape());
  for (std::int64_t i = 0; i < x.size(); ++i) x[i] = std::sin(static_cast<float>(i) * 0.1f);
  const Tensor full = m.forward(x);
  // Split execution at every boundary must reproduce the monolithic result.
  for (std::size_t split = 0; split <= m.layer_count(); ++split) {
    const Tensor head = m.forward_range(x, 0, split);
    const Tensor tail = m.forward_range(head, split, m.layer_count());
    EXPECT_LT(tail.max_abs_diff(full), 1e-5) << "split at " << split;
  }
}

TEST(Model, RejectsIncompatibleLayer) {
  Model m("bad", Shape{4});
  EXPECT_THROW(
      m.add(std::make_unique<Conv2D>(1, 1, 3, 3, 1, 1, Padding::kValid,
                                     std::vector<float>(9, 0.0f), std::vector<float>(1, 0.0f))),
      std::invalid_argument);
}

TEST(Model, SummaryMentionsEveryLayer) {
  const Model m = make_kws_dscnn();
  const std::string s = m.summary();
  EXPECT_NE(s.find("conv2d"), std::string::npos);
  EXPECT_NE(s.find("dwconv"), std::string::npos);
  EXPECT_NE(s.find("fc"), std::string::npos);
  EXPECT_NE(s.find("softmax"), std::string::npos);
}

// ---- Model zoo -------------------------------------------------------------------------

class ZooTest : public ::testing::TestWithParam<int> {};

TEST_P(ZooTest, RunsEndToEndWithFiniteProbabilities) {
  Model m = GetParam() == 0   ? make_kws_dscnn()
            : GetParam() == 1 ? make_ecg_cnn1d()
                              : make_vww_micronet();
  Tensor x(m.input_shape());
  for (std::int64_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(static_cast<float>(i) * 0.01f);
  }
  const Tensor y = m.forward(x);
  double sum = 0.0;
  for (std::int64_t i = 0; i < y.size(); ++i) {
    EXPECT_TRUE(std::isfinite(y[i]));
    EXPECT_GE(y[i], 0.0f);
    sum += y[i];
  }
  EXPECT_NEAR(sum, 1.0, 1e-5);  // ends in softmax
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooTest, ::testing::Values(0, 1, 2));

TEST(ModelZoo, DeterministicAcrossConstructions) {
  Model a = make_kws_dscnn(123);
  Model b = make_kws_dscnn(123);
  Tensor x(a.input_shape(), 0.5f);
  EXPECT_LT(a.forward(x).max_abs_diff(b.forward(x)), 1e-9);
}

TEST(ModelZoo, SizesAreTinyMlClass) {
  // These run on wearables: parameter counts must be tinyML scale.
  EXPECT_LT(make_kws_dscnn().total_params(), 100'000u);
  EXPECT_LT(make_ecg_cnn1d().total_params(), 20'000u);
  EXPECT_LT(make_vww_micronet().total_params(), 100'000u);
  // And MAC counts ordered by modality weight: ECG < KWS < VWW.
  EXPECT_LT(make_ecg_cnn1d().total_macs(), make_kws_dscnn().total_macs());
  EXPECT_LT(make_kws_dscnn().total_macs(), make_vww_micronet().total_macs());
}

// ---- Quantization ------------------------------------------------------------------------

TEST(Quantize, RoundTripWithinHalfLsb) {
  Tensor t(Shape{100});
  for (int i = 0; i < 100; ++i) t[i] = std::sin(static_cast<float>(i)) * 3.0f;
  const QuantizedTensor q = quantize(t);
  const Tensor back = dequantize(q);
  EXPECT_LE(t.max_abs_diff(back), quant_error_bound(q.params) * 1.001);
}

TEST(Quantize, ZeroIsExactlyRepresentable) {
  Tensor t(Shape{3});
  t[0] = -1.0f;
  t[1] = 0.0f;
  t[2] = 2.0f;
  const QuantizedTensor q = quantize(t);
  const Tensor back = dequantize(q);
  EXPECT_FLOAT_EQ(back[1], 0.0f);
}

TEST(Quantize, Int8IsQuarterTheBytes) {
  Tensor t(Shape{64}, 1.0f);
  const QuantizedTensor q = quantize(t);
  EXPECT_EQ(q.bytes() * 4, t.bytes());
}

TEST(Quantize, DegenerateConstantTensor) {
  Tensor t(Shape{4}, 5.0f);
  const QuantizedTensor q = quantize(t);
  const Tensor back = dequantize(q);
  EXPECT_LE(t.max_abs_diff(back), quant_error_bound(q.params) * 1.001);
}

TEST(Quantize, ParamsCoverRange) {
  const QuantParams p = choose_quant_params(-2.0f, 6.0f);
  EXPECT_NEAR(p.scale, 8.0f / 255.0f, 1e-6);
  EXPECT_GE(p.zero_point, -128);
  EXPECT_LE(p.zero_point, 127);
}

// ---- Batched inference ------------------------------------------------------

/// Deterministic, sample-dependent fill so batched samples differ.
Tensor patterned_input(const Shape& shape, int sample) {
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.size(); ++i) {
    const auto h = static_cast<std::uint32_t>(i * 2654435761u + sample * 97u);
    t[i] = static_cast<float>(h % 1000u) / 500.0f - 1.0f;
  }
  return t;
}

TEST(Batched, StackUnstackRoundTrip) {
  std::vector<Tensor> samples;
  for (int s = 0; s < 3; ++s) samples.push_back(patterned_input(Shape{4, 5}, s));
  const Tensor batched = stack_batch(samples);
  EXPECT_EQ(batched.shape(), (Shape{3, 4, 5}));
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(batched.batch_item(s).max_abs_diff(samples[static_cast<std::size_t>(s)]), 0.0);
  }
  EXPECT_THROW(stack_batch({}), std::invalid_argument);
  EXPECT_THROW(stack_batch({Tensor(Shape{2}), Tensor(Shape{3})}), std::invalid_argument);
}

TEST(Batched, ZooModelsBitExactAgainstPerSampleForward) {
  // The determinism contract of the hub's batched pass: batching changes
  // memory traffic, never per-sample arithmetic. Covers conv2d, depthwise,
  // conv1d, fc, pooling, batchnorm, relu, softmax across the zoo.
  const Model models[] = {make_kws_dscnn(), make_ecg_cnn1d(), make_vww_micronet()};
  for (const Model& m : models) {
    constexpr int kBatch = 3;
    std::vector<Tensor> inputs;
    for (int s = 0; s < kBatch; ++s) inputs.push_back(patterned_input(m.input_shape(), s));
    const Tensor batched = m.run_batched(stack_batch(inputs));
    ASSERT_EQ(batched.shape()[0], kBatch) << m.name();
    for (int s = 0; s < kBatch; ++s) {
      const Tensor reference = m.forward(inputs[static_cast<std::size_t>(s)]);
      EXPECT_EQ(batched.batch_item(s).max_abs_diff(reference), 0.0)
          << m.name() << " sample " << s;
    }
  }
}

TEST(Batched, RejectsShapeMismatch) {
  const Model m = make_ecg_cnn1d();
  // Missing batch dim.
  EXPECT_THROW(m.run_batched(Tensor(m.input_shape())), std::invalid_argument);
  // Wrong sample shape.
  EXPECT_THROW(m.run_batched(Tensor(Shape{2, 360, 2})), std::invalid_argument);
}

TEST(Batched, FullyConnectedBatchedMatchesForward) {
  std::vector<float> w(6);
  std::iota(w.begin(), w.end(), 1.0f);  // 2x3: [[1,2,3],[4,5,6]]
  FullyConnected fc(3, 2, w, {0.5f, -0.5f});
  const Tensor a = patterned_input(Shape{3}, 0);
  const Tensor b = patterned_input(Shape{3}, 1);
  const Tensor batched_in = stack_batch({a, b});
  Tensor batched(Shape{2, 2});
  Workspace ws;
  fc.forward_into(batched_in.data(), Shape{3}, 2, batched.data(), ws);
  EXPECT_EQ(batched.batch_item(0).max_abs_diff(fc.forward(a)), 0.0);
  EXPECT_EQ(batched.batch_item(1).max_abs_diff(fc.forward(b)), 0.0);
}

}  // namespace
}  // namespace iob::nn
