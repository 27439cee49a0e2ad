#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "conv/conv2d.hpp"
#include "conv/direct.hpp"
#include "conv/im2col.hpp"
#include "dataset/lowering.hpp"
#include "dataset/networks.hpp"
#include "syclrt/queue.hpp"

namespace aks::conv {
namespace {

struct ConvData {
  std::vector<float> input;
  std::vector<float> filter;
  std::vector<float> expected;
};

ConvData make_data(const ConvShape& shape, std::uint64_t seed) {
  common::Rng rng(seed);
  ConvData data;
  data.input.resize(shape.input_size());
  data.filter.resize(shape.filter_size());
  data.expected.resize(shape.output_size());
  for (auto& v : data.input) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : data.filter) v = static_cast<float>(rng.uniform(-1, 1));
  direct_conv2d(data.input, data.filter, data.expected, shape);
  return data;
}

void expect_near(std::span<const float> actual, std::span<const float> expected,
                 float tolerance) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_NEAR(actual[i], expected[i], tolerance) << "element " << i;
  }
}

TEST(ConvShapeInfo, OutputGeometry) {
  ConvShape s;
  s.in_height = s.in_width = 56;
  s.in_channels = 64;
  s.out_channels = 128;
  s.kernel = 3;
  s.stride = 1;
  s.padding = 1;
  EXPECT_EQ(s.out_height(), 56);
  EXPECT_EQ(s.out_width(), 56);
  s.stride = 2;
  EXPECT_EQ(s.out_height(), 28);
}

TEST(DirectConv, IdentityKernelPassesThrough) {
  // 1x1 kernel with identity channel matrix: output == input.
  ConvShape s;
  s.in_height = s.in_width = 4;
  s.in_channels = s.out_channels = 3;
  s.kernel = 1;
  std::vector<float> input(s.input_size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<float>(i) * 0.25f;
  }
  std::vector<float> filter(s.filter_size(), 0.0f);
  for (int c = 0; c < 3; ++c) filter[static_cast<std::size_t>(c) * 3 + static_cast<std::size_t>(c)] = 1.0f;
  std::vector<float> output(s.output_size());
  direct_conv2d(input, filter, output, s);
  expect_near(output, input, 1e-6f);
}

TEST(DirectConv, AveragingKernelOnConstantInput) {
  // All-ones 3x3 kernel on constant input: interior outputs are 9 * value.
  ConvShape s;
  s.in_height = s.in_width = 5;
  s.in_channels = s.out_channels = 1;
  s.kernel = 3;
  s.padding = 1;
  std::vector<float> input(s.input_size(), 2.0f);
  std::vector<float> filter(s.filter_size(), 1.0f);
  std::vector<float> output(s.output_size());
  direct_conv2d(input, filter, output, s);
  // Interior pixel (2,2): full 3x3 support.
  EXPECT_FLOAT_EQ(output[2 * 5 + 2], 18.0f);
  // Corner pixel (0,0): only 2x2 of the kernel lands inside.
  EXPECT_FLOAT_EQ(output[0], 8.0f);
}

TEST(DirectConv, SizeValidation) {
  ConvShape s;
  s.in_height = s.in_width = 4;
  s.in_channels = s.out_channels = 1;
  s.kernel = 3;
  std::vector<float> input(s.input_size());
  std::vector<float> filter(s.filter_size());
  std::vector<float> bad(1);
  EXPECT_THROW(direct_conv2d(input, filter, bad, s), common::Error);
}

/// The dataset's rows for a one-layer network holding `layer` at `batch`.
std::vector<data::LoweredGemm> dataset_rows(const data::ConvLayer& layer,
                                            int batch) {
  data::Network network;
  network.name = "one_layer";
  network.convs = {layer};
  return data::lower_network(network, {batch});
}

TEST(Im2col, ShapeMatchesDatasetLowering) {
  // The dataset holds the GEMM the library launches: its im2col row is the
  // table's im2col entry.
  data::ConvLayer layer;
  layer.in_channels = 32;
  layer.out_channels = 64;
  layer.kernel = 3;
  layer.padding = 1;
  layer.in_height = layer.in_width = 28;
  const auto rows = dataset_rows(layer, 4);
  const auto table = lowerings(layer.shape(4));
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0].transform, Transform::kIm2col);
  EXPECT_EQ(rows[0].shape, table[0].gemm_shape);
}

TEST(Im2col, PatchMatrixHasReceptiveFields) {
  // 3x3 input, 2x2 kernel, no padding: 4 patches of 4 values each.
  ConvShape s;
  s.in_height = s.in_width = 3;
  s.in_channels = 1;
  s.out_channels = 1;
  s.kernel = 2;
  std::vector<float> input = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto patches = im2col_transform(input, s);
  ASSERT_EQ(patches.size(), 16u);
  const float expected[4][4] = {
      {1, 2, 4, 5}, {2, 3, 5, 6}, {4, 5, 7, 8}, {5, 6, 8, 9}};
  for (int p = 0; p < 4; ++p)
    for (int v = 0; v < 4; ++v)
      EXPECT_FLOAT_EQ(patches[static_cast<std::size_t>(p) * 4 +
                              static_cast<std::size_t>(v)],
                      expected[p][v]);
}

/// im2col+GEMM must equal direct convolution for a spread of geometries and
/// kernel configurations.
struct Im2colCase {
  ConvShape shape;
  gemm::KernelConfig config;
};

class Im2colMatchesDirect : public ::testing::TestWithParam<Im2colCase> {};

TEST_P(Im2colMatchesDirect, Equivalence) {
  const auto& [shape, config] = GetParam();
  const auto data = make_data(shape, 11);
  std::vector<float> output(shape.output_size());
  syclrt::Queue queue;
  conv2d(queue, Transform::kIm2col, config, data.input, data.filter, output,
         shape);
  expect_near(output, data.expected, 1e-3f);
}

ConvShape conv_case(int batch, int spatial, int in_c, int out_c, int kernel,
                    int stride, int padding) {
  ConvShape s;
  s.batch = batch;
  s.in_height = s.in_width = spatial;
  s.in_channels = in_c;
  s.out_channels = out_c;
  s.kernel = kernel;
  s.stride = stride;
  s.padding = padding;
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colMatchesDirect,
    ::testing::Values(
        Im2colCase{conv_case(1, 8, 3, 8, 3, 1, 1), {2, 2, 2, 8, 8}},
        Im2colCase{conv_case(2, 7, 4, 6, 3, 2, 1), {1, 4, 8, 8, 16}},
        Im2colCase{conv_case(1, 12, 8, 16, 1, 1, 0), {4, 4, 4, 8, 8}},
        Im2colCase{conv_case(1, 9, 2, 5, 5, 1, 2), {8, 1, 2, 16, 8}},
        Im2colCase{conv_case(3, 6, 5, 7, 3, 1, 0), {2, 8, 4, 1, 64}}),
    [](const auto& param_info) {
      return "case" + std::to_string(param_info.index);
    });

TEST(Winograd, ApplicabilityRules) {
  const auto listed = [](const ConvShape& shape) {
    return lowerings(shape).size();
  };
  EXPECT_EQ(listed(conv_case(1, 8, 4, 4, 3, 1, 1)), 3u);
  EXPECT_EQ(listed(conv_case(1, 8, 4, 4, 3, 2, 1)), 1u);
  EXPECT_EQ(listed(conv_case(1, 8, 4, 4, 1, 1, 0)), 1u);
  EXPECT_EQ(listed(conv_case(1, 8, 4, 4, 5, 1, 2)), 1u);
}

TEST(Winograd, ShapeMatchesDatasetLowering) {
  // The dataset's Winograd row is the table's F(2x2) entry; the F(4x4)
  // entry stays out of the dataset.
  data::ConvLayer layer;
  layer.in_channels = 256;
  layer.out_channels = 512;
  layer.kernel = 3;
  layer.padding = 1;
  layer.in_height = layer.in_width = 14;
  const auto rows = dataset_rows(layer, 2);
  const auto table = lowerings(layer.shape(2));
  ASSERT_EQ(rows.size(), 2u);
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(rows[1].transform, Transform::kWinograd);
  EXPECT_EQ(rows[1].shape, table[1].gemm_shape);
}

class WinogradMatchesDirect : public ::testing::TestWithParam<Im2colCase> {};

TEST_P(WinogradMatchesDirect, Equivalence) {
  const auto& [shape, config] = GetParam();
  const auto data = make_data(shape, 13);
  std::vector<float> output(shape.output_size());
  syclrt::Queue queue;
  conv2d(queue, Transform::kWinograd, config, data.input, data.filter, output,
         shape);
  // Winograd accumulates more rounding; loosen slightly.
  expect_near(output, data.expected, 5e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, WinogradMatchesDirect,
    ::testing::Values(
        Im2colCase{conv_case(1, 8, 3, 8, 3, 1, 1), {2, 2, 2, 8, 8}},
        Im2colCase{conv_case(1, 7, 4, 6, 3, 1, 1), {1, 4, 8, 8, 16}},  // odd
        Im2colCase{conv_case(2, 10, 6, 5, 3, 1, 0), {4, 4, 4, 8, 8}},  // no pad
        Im2colCase{conv_case(1, 13, 2, 9, 3, 1, 1), {8, 1, 2, 16, 8}},
        Im2colCase{conv_case(2, 6, 8, 8, 3, 1, 1), {2, 8, 4, 1, 64}},
        // More channels than one transform work-group holds.
        Im2colCase{conv_case(1, 9, 130, 70, 3, 1, 1), {4, 4, 4, 8, 8}}),
    [](const auto& param_info) {
      return "case" + std::to_string(param_info.index);
    });

TEST(Winograd, RejectsInapplicableShape) {
  const auto shape = conv_case(1, 8, 4, 4, 3, 2, 1);
  std::vector<float> input(shape.input_size());
  std::vector<float> filter(shape.filter_size());
  std::vector<float> output(shape.output_size());
  syclrt::Queue queue;
  EXPECT_THROW(conv2d(queue, Transform::kWinograd, {2, 2, 2, 8, 8}, input,
                      filter, output, shape),
               common::Error);
}

class Winograd4MatchesDirect : public ::testing::TestWithParam<Im2colCase> {};

TEST_P(Winograd4MatchesDirect, Equivalence) {
  const auto& [shape, config] = GetParam();
  const auto data = make_data(shape, 17);
  std::vector<float> output(shape.output_size());
  syclrt::Queue queue;
  conv2d(queue, Transform::kWinograd4, config, data.input, data.filter, output,
         shape);
  // F(4x4, 3x3) has larger transform constants; tolerance reflects that.
  expect_near(output, data.expected, 2e-2f);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Winograd4MatchesDirect,
    ::testing::Values(
        Im2colCase{conv_case(1, 12, 3, 8, 3, 1, 1), {2, 2, 2, 8, 8}},
        Im2colCase{conv_case(1, 9, 4, 6, 3, 1, 1), {1, 4, 8, 8, 16}},   // odd
        Im2colCase{conv_case(2, 14, 6, 5, 3, 1, 0), {4, 4, 4, 8, 8}},   // no pad
        Im2colCase{conv_case(1, 7, 2, 9, 3, 1, 1), {8, 1, 2, 16, 8}},   // tail
        Im2colCase{conv_case(2, 8, 8, 8, 3, 1, 1), {2, 8, 4, 1, 64}},
        // More channels than one transform work-group holds.
        Im2colCase{conv_case(1, 10, 70, 130, 3, 1, 1), {4, 4, 4, 8, 8}}),
    [](const auto& param_info) {
      return "case" + std::to_string(param_info.index);
    });

TEST(Winograd4, ShapeFormulaAndFlopReduction) {
  const auto table = lowerings(conv_case(1, 56, 64, 64, 3, 1, 1));
  ASSERT_EQ(table.size(), 3u);
  const auto shape = table[2].gemm_shape;
  EXPECT_EQ(shape.m, 14u * 14u);  // 4x4 output tiles over 56x56
  EXPECT_EQ(shape.k, 64u);
  EXPECT_EQ(shape.n, 64u);
  // Multiply reduction vs im2col: 9 / (36/16) = 4x.
  const double direct_flops = table[0].gemm_shape.flops();
  const double wino4_flops =
      static_cast<double>(table[2].multiplies) * shape.flops();
  EXPECT_NEAR(direct_flops / wino4_flops, 4.0, 0.1);
}

TEST(Winograd4, RejectsInapplicableShape) {
  const auto shape = conv_case(1, 8, 4, 4, 3, 2, 1);
  std::vector<float> input(shape.input_size());
  std::vector<float> filter(shape.filter_size());
  std::vector<float> output(shape.output_size());
  syclrt::Queue queue;
  EXPECT_THROW(conv2d(queue, Transform::kWinograd4, {2, 2, 2, 8, 8}, input,
                      filter, output, shape),
               common::Error);
}

TEST(Winograd, FlopReductionVsIm2col) {
  // The point of Winograd: the multiply count drops by up to 2.25x for
  // F(2x2, 3x3). Verify at the shape level.
  const auto table = lowerings(conv_case(1, 56, 64, 64, 3, 1, 1));
  ASSERT_EQ(table.size(), 3u);
  const double direct_flops = table[0].gemm_shape.flops();
  const double wino_flops =
      static_cast<double>(table[1].multiplies) * table[1].gemm_shape.flops();
  EXPECT_LT(wino_flops, direct_flops);
  EXPECT_NEAR(direct_flops / wino_flops, 2.25, 0.05);
}

// --- Bit identity across execution modes ------------------------------------
// Every lowering's output must not depend on how its kernels are dispatched:
// the default queue (global pool), a queue over a one-worker pool, and a
// deterministic-replay queue must agree bit for bit.

std::vector<float> run_lowering(Transform transform, syclrt::Queue& queue,
                                const ConvShape& shape, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> input(shape.input_size());
  std::vector<float> filter(shape.filter_size());
  for (auto& v : input) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : filter) v = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> output(shape.output_size(),
                            std::numeric_limits<float>::quiet_NaN());
  conv2d(queue, transform, {4, 4, 4, 8, 8}, input, filter, output, shape);
  return output;
}

/// FNV-1a over the bit patterns of the values.
std::uint64_t digest(const std::vector<float>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const float v : values) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    h = (h ^ bits) * 0x100000001b3ULL;
  }
  return h;
}

constexpr Transform kLowerings[] = {Transform::kIm2col, Transform::kWinograd,
                                    Transform::kWinograd4};

TEST(ConvBitIdentity, SameBitsOnEveryQueue) {
  // Shapes that split unevenly: batch 2, odd sizes, no padding, channel
  // counts off multiples of 4 and of a work-group, and a deep layer.
  const ConvShape shapes[] = {
      conv_case(2, 11, 5, 7, 3, 1, 1),   conv_case(1, 13, 6, 10, 3, 1, 0),
      conv_case(2, 9, 70, 66, 3, 1, 1),  conv_case(1, 14, 512, 512, 3, 1, 1)};
  common::ThreadPool one_worker(1);
  for (const auto& shape : shapes) {
    for (const Transform lowering : kLowerings) {
      SCOPED_TRACE("lowering " + to_string(lowering) + ", in_c " +
                   std::to_string(shape.in_channels));
      syclrt::Queue pooled;
      syclrt::Queue serial(syclrt::Device::host(), &one_worker);
      syclrt::Queue replay;
      replay.set_deterministic_replay(true);
      const auto expected = run_lowering(lowering, pooled, shape, 29);
      for (syclrt::Queue* queue : {&serial, &replay}) {
        const auto actual = run_lowering(lowering, *queue, shape, 29);
        ASSERT_EQ(actual.size(), expected.size());
        EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                              expected.size() * sizeof(float)),
                  0);
      }
    }
  }
}

TEST(ConvBitIdentity, PinnedDigests) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "digests were recorded with x86-64 SSE arithmetic; other "
                  "targets may contract multiply-adds";
#endif
  // Recorded with the serial transforms the kernels replaced; any change to
  // the arithmetic of a lowering shows here.
  struct Pin {
    ConvShape shape;
    std::uint64_t seed;
    std::uint64_t digests[3];  // im2col, F(2x2), F(4x4)
  };
  const Pin pins[] = {
      {conv_case(2, 11, 5, 7, 3, 1, 1),
       101,
       {0x841c6f7db04a546aULL, 0xcb072d22b1f02f1aULL, 0x5462fe03535e07c5ULL}},
      {conv_case(1, 13, 6, 10, 3, 1, 0),
       202,
       {0xa9d7146894a69527ULL, 0x557de9e5f1f13ed9ULL, 0x137f6b5744850714ULL}},
      {conv_case(2, 9, 70, 66, 3, 1, 1),
       303,
       {0xe5724ea14f2fa082ULL, 0x1e8806c006bd1b84ULL, 0x9dc2ab5972ee3de3ULL}},
  };
  syclrt::Queue queue;
  for (const auto& pin : pins) {
    for (std::size_t l = 0; l < 3; ++l) {
      const auto output = run_lowering(kLowerings[l], queue, pin.shape, pin.seed);
      EXPECT_EQ(digest(output), pin.digests[l])
          << "seed " << pin.seed << " lowering " << l << std::hex
          << " digest 0x" << digest(output);
    }
  }
}

// --- The lowering table -------------------------------------------------------

TEST(ConvLowerings, NetworkLayersListIm2colFirstAndWinogradFor3x3Stride1) {
  std::size_t layers = 0;
  for (const auto& network : data::paper_networks()) {
    for (const auto& layer : network.convs) {
      if (layer.groups != 1) continue;
      const bool winograd = layer.kernel == 3 && layer.stride == 1;
      for (const int batch : {1, 4}) {
        SCOPED_TRACE(network.name + ":" + layer.name + " batch " +
                     std::to_string(batch));
        const auto table = lowerings(layer.shape(batch));
        ASSERT_EQ(table.size(), winograd ? 3u : 1u);
        EXPECT_EQ(table[0].transform, Transform::kIm2col);
        EXPECT_EQ(table[0].multiplies, 1u);
        if (winograd) {
          EXPECT_EQ(table[1].transform, Transform::kWinograd);
          EXPECT_EQ(table[1].multiplies, 16u);
          EXPECT_EQ(table[2].transform, Transform::kWinograd4);
          EXPECT_EQ(table[2].multiplies, 36u);
        }
      }
      ++layers;
    }
  }
  EXPECT_EQ(layers, 101u);  // dense convolutions of the three networks
}

TEST(ConvLowerings, Conv2dRejectsWhatTheTableDoesNotList) {
  const auto reject = [](Transform transform, const ConvShape& shape) {
    std::vector<float> input(shape.input_size());
    std::vector<float> filter(shape.filter_size());
    std::vector<float> output(shape.output_size());
    syclrt::Queue queue;
    EXPECT_THROW(conv2d(queue, transform, {2, 2, 2, 8, 8}, input, filter,
                        output, shape),
                 common::Error)
        << to_string(transform) << " kernel " << shape.kernel << " stride "
        << shape.stride;
  };
  reject(Transform::kFullyConnected, conv_case(1, 8, 4, 4, 3, 1, 1));
  for (const Transform winograd : {Transform::kWinograd, Transform::kWinograd4}) {
    reject(winograd, conv_case(1, 8, 4, 4, 3, 2, 1));  // stride 2
    reject(winograd, conv_case(1, 8, 4, 4, 1, 1, 0));  // 1x1
  }
}

TEST(ConvLowerings, TransformNamesRoundTrip) {
  for (const Transform t : {Transform::kIm2col, Transform::kWinograd,
                            Transform::kFullyConnected, Transform::kWinograd4}) {
    EXPECT_EQ(parse_transform(to_string(t), "test"), t);
  }
  EXPECT_THROW((void)parse_transform("garbage", "test"), common::Error);
  EXPECT_THROW((void)parse_transform("", "test"), common::Error);
  EXPECT_THROW((void)parse_transform("Winograd", "test"), common::Error);
}

}  // namespace
}  // namespace aks::conv
