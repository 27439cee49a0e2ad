#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "dataset/benchmark_runner.hpp"
#include "dataset/extract.hpp"
#include "dataset/lowering.hpp"
#include "dataset/networks.hpp"
#include "dataset/perf_dataset.hpp"

namespace aks::data {
namespace {

TEST(Networks, Vgg16Structure) {
  const Network net = vgg16();
  EXPECT_EQ(net.convs.size(), 13u);
  EXPECT_EQ(net.fcs.size(), 3u);
  for (const auto& conv : net.convs) {
    EXPECT_EQ(conv.kernel, 3);
    EXPECT_EQ(conv.stride, 1);
    EXPECT_EQ(conv.groups, 1);
  }
  EXPECT_EQ(net.fcs[0].in_features, 25088);
  EXPECT_EQ(net.fcs[2].out_features, 1000);
}

TEST(Networks, Resnet50Structure) {
  const Network net = resnet50();
  // Stem + 16 bottlenecks x 3 convs + 4 downsample projections = 53.
  EXPECT_EQ(net.convs.size(), 53u);
  EXPECT_EQ(net.fcs.size(), 1u);
  EXPECT_EQ(net.convs.front().kernel, 7);
  // Final stage output feeds a 2048-wide classifier.
  EXPECT_EQ(net.fcs[0].in_features, 2048);
}

TEST(Networks, MobilenetV2Structure) {
  const Network net = mobilenet_v2();
  EXPECT_EQ(net.fcs.size(), 1u);
  std::size_t depthwise = 0;
  for (const auto& conv : net.convs) depthwise += conv.is_depthwise() ? 1u : 0u;
  // One depthwise conv per inverted-residual block (17 blocks).
  EXPECT_EQ(depthwise, 17u);
  EXPECT_EQ(net.fcs[0].in_features, 1280);
}

TEST(Networks, SpatialDimensionsChainCorrectly) {
  for (const auto& net : paper_networks()) {
    for (const auto& conv : net.convs) {
      EXPECT_GT(conv.shape(1).out_height(), 0) << net.name << ":" << conv.name;
      EXPECT_GT(conv.shape(1).out_width(), 0) << net.name << ":" << conv.name;
    }
  }
}

/// The dataset's rows for a one-layer network holding `conv` at `batch`.
std::vector<LoweredGemm> rows_of(const ConvLayer& conv, int batch) {
  Network network;
  network.name = "one_layer";
  network.convs = {conv};
  return lower_network(network, {batch});
}

TEST(Lowering, Im2colShapeFormula) {
  ConvLayer conv;
  conv.in_channels = 64;
  conv.out_channels = 128;
  conv.kernel = 3;
  conv.stride = 1;
  conv.padding = 1;
  conv.in_height = conv.in_width = 56;
  const auto rows = rows_of(conv, 4);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0].transform, Transform::kIm2col);
  EXPECT_EQ(rows[0].shape.m, 4u * 56 * 56);
  EXPECT_EQ(rows[0].shape.k, 64u * 9);
  EXPECT_EQ(rows[0].shape.n, 128u);
  EXPECT_EQ(rows[0].batch, 4);
}

TEST(Lowering, Im2colSkipsDepthwise) {
  ConvLayer dw;
  dw.in_channels = dw.out_channels = dw.groups = 96;
  dw.kernel = 3;
  dw.in_height = dw.in_width = 28;
  dw.padding = 1;
  EXPECT_TRUE(rows_of(dw, 1).empty());
}

TEST(Lowering, WinogradShapeFormula) {
  ConvLayer conv;
  conv.in_channels = 256;
  conv.out_channels = 512;
  conv.kernel = 3;
  conv.stride = 1;
  conv.padding = 1;
  conv.in_height = conv.in_width = 14;
  const auto rows = rows_of(conv, 2);
  ASSERT_EQ(rows.size(), 2u);  // im2col and F(2x2); F(4x4) stays out
  EXPECT_EQ(rows[1].transform, Transform::kWinograd);
  EXPECT_EQ(rows[1].shape.m, 2u * 7 * 7);  // 2x2 output tiles over 14x14
  EXPECT_EQ(rows[1].shape.k, 256u);
  EXPECT_EQ(rows[1].shape.n, 512u);
}

TEST(Lowering, WinogradRejectsStride2And1x1) {
  ConvLayer strided;
  strided.in_channels = 3;
  strided.out_channels = 64;
  strided.kernel = 3;
  strided.stride = 2;
  strided.padding = 1;
  strided.in_height = strided.in_width = 224;
  const auto strided_rows = rows_of(strided, 1);
  ASSERT_EQ(strided_rows.size(), 1u);
  EXPECT_EQ(strided_rows[0].transform, Transform::kIm2col);

  ConvLayer pointwise;
  pointwise.in_channels = 64;
  pointwise.out_channels = 256;
  pointwise.kernel = 1;
  pointwise.in_height = pointwise.in_width = 56;
  const auto pointwise_rows = rows_of(pointwise, 1);
  ASSERT_EQ(pointwise_rows.size(), 1u);
  EXPECT_EQ(pointwise_rows[0].transform, Transform::kIm2col);
}

TEST(Lowering, NetworkLoweringSkipsGroupedAndF4) {
  // Every dense layer's rows are the table's entries minus F(4x4), in table
  // order; grouped layers have none.
  for (const auto& network : paper_networks()) {
    for (const int batch : {1, 4}) {
      std::vector<LoweredGemm> expected;
      for (const auto& layer : network.convs) {
        if (layer.groups != 1) continue;
        for (const auto& lowering : conv::lowerings(layer.shape(batch))) {
          if (lowering.transform == Transform::kWinograd4) continue;
          expected.push_back({lowering.gemm_shape, lowering.transform,
                              layer.name, network.name, batch});
        }
      }
      std::vector<LoweredGemm> convs;
      for (const auto& row : lower_network(network, {batch})) {
        EXPECT_NE(row.transform, Transform::kWinograd4);
        if (row.transform != Transform::kFullyConnected) convs.push_back(row);
      }
      ASSERT_EQ(convs.size(), expected.size()) << network.name;
      for (std::size_t i = 0; i < convs.size(); ++i) {
        EXPECT_EQ(convs[i].shape, expected[i].shape) << convs[i].layer;
        EXPECT_EQ(convs[i].transform, expected[i].transform) << convs[i].layer;
        EXPECT_EQ(convs[i].layer, expected[i].layer);
      }
    }
  }
}

TEST(Lowering, FcShape) {
  const auto shape = fc_shape({"fc", 4096, 1000}, 16);
  EXPECT_EQ(shape.m, 16u);
  EXPECT_EQ(shape.k, 4096u);
  EXPECT_EQ(shape.n, 1000u);
}

TEST(Lowering, NetworkLoweringCoversAllTransforms) {
  const auto lowered = lower_network(vgg16(), {1});
  std::set<Transform> transforms;
  for (const auto& item : lowered) transforms.insert(item.transform);
  EXPECT_EQ(transforms.size(), 3u);
  // 13 im2col + 13 winograd + 3 fc.
  EXPECT_EQ(lowered.size(), 29u);
}

TEST(Extract, DeduplicationKeepsFirstProvenance) {
  std::vector<LoweredGemm> items;
  LoweredGemm a;
  a.shape = {8, 8, 8};
  a.layer = "first";
  LoweredGemm b = a;
  b.layer = "second";
  items.push_back(a);
  items.push_back(b);
  const auto deduped = deduplicate(items);
  ASSERT_EQ(deduped.size(), 1u);
  EXPECT_EQ(deduped[0].layer, "first");
}

TEST(Extract, PaperShapeCountsAreInPaperRegime) {
  const auto per_network = extract_paper_shapes();
  ASSERT_EQ(per_network.size(), 3u);
  // Documented counts for the default batch sets (paper: 78 / 66 / 26).
  EXPECT_EQ(per_network[0].network, "VGG16");
  EXPECT_EQ(per_network[0].shapes.size(), 78u);
  EXPECT_EQ(per_network[1].network, "ResNet50");
  EXPECT_EQ(per_network[1].shapes.size(), 73u);
  EXPECT_EQ(per_network[2].network, "MobileNetV2");
  EXPECT_EQ(per_network[2].shapes.size(), 21u);
  EXPECT_EQ(extract_all_shapes().size(), 172u);
}

TEST(Extract, ShapesWithinNetworkAreUnique) {
  for (const auto& per_network : extract_paper_shapes()) {
    std::set<gemm::GemmShape> seen;
    for (const auto& item : per_network.shapes) {
      EXPECT_TRUE(seen.insert(item.shape).second)
          << per_network.network << " duplicates " << item.shape.to_string();
    }
  }
}

PerfDataset tiny_dataset() {
  std::vector<LoweredGemm> shapes(3);
  shapes[0].shape = {64, 64, 64};
  shapes[1].shape = {1, 4096, 1000};
  shapes[2].shape = {3136, 576, 64};
  data::RunnerOptions options;
  options.iterations = 2;
  return run_model_benchmarks(shapes, perf::DeviceSpec::amd_r9_nano(),
                              options);
}

TEST(PerfDataset, ScoresAreNormalisedPerRow) {
  const auto ds = tiny_dataset();
  EXPECT_EQ(ds.num_configs(), 640u);
  for (std::size_t r = 0; r < ds.num_shapes(); ++r) {
    double best = 0.0;
    for (std::size_t c = 0; c < ds.num_configs(); ++c) {
      const double s = ds.scores()(r, c);
      EXPECT_GT(s, 0.0);
      EXPECT_LE(s, 1.0);
      best = std::max(best, s);
    }
    EXPECT_DOUBLE_EQ(best, 1.0);
    EXPECT_DOUBLE_EQ(ds.scores()(r, ds.best_config(r)), 1.0);
  }
}

TEST(PerfDataset, FeaturesMatchShapes) {
  const auto ds = tiny_dataset();
  EXPECT_DOUBLE_EQ(ds.features()(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(ds.features()(1, 1), 4096.0);
  EXPECT_DOUBLE_EQ(ds.features()(1, 2), 1000.0);
}

TEST(PerfDataset, OptimalCountsSumToRows) {
  const auto ds = tiny_dataset();
  std::size_t total = 0;
  for (const auto c : ds.optimal_counts()) total += c;
  EXPECT_EQ(total, ds.num_shapes());
}

TEST(PerfDataset, RestrictedScoreNeverExceedsOne) {
  const auto ds = tiny_dataset();
  const std::vector<std::size_t> allowed = {0, 100, 639};
  for (std::size_t r = 0; r < ds.num_shapes(); ++r) {
    const double s = ds.best_restricted_score(r, allowed);
    EXPECT_GT(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
  EXPECT_THROW((void)ds.best_restricted_score(0, {}), common::Error);
  EXPECT_THROW((void)ds.best_restricted_score(0, {9999}), common::Error);
}

TEST(PerfDataset, SubsetPreservesRows) {
  const auto ds = tiny_dataset();
  const auto sub = ds.subset({2, 0});
  EXPECT_EQ(sub.num_shapes(), 2u);
  EXPECT_EQ(sub.shapes()[0].shape, ds.shapes()[2].shape);
  EXPECT_EQ(sub.shapes()[1].shape, ds.shapes()[0].shape);
  EXPECT_THROW((void)ds.subset({17}), common::Error);
}

TEST(PerfDataset, SplitIsDisjointAndComplete) {
  const auto ds = build_paper_dataset();
  const auto split = ds.split(0.8, 123);
  EXPECT_EQ(split.train.num_shapes() + split.test.num_shapes(),
            ds.num_shapes());
  // The paper's proportions: 80% train.
  EXPECT_NEAR(static_cast<double>(split.train.num_shapes()) /
                  static_cast<double>(ds.num_shapes()),
              0.8, 0.01);
  std::set<std::size_t> train(split.train_rows.begin(),
                              split.train_rows.end());
  for (const auto r : split.test_rows) EXPECT_EQ(train.count(r), 0u);
  EXPECT_THROW((void)ds.split(0.0, 1), common::Error);
  EXPECT_THROW((void)ds.split(1.0, 1), common::Error);
}

TEST(PerfDataset, SplitIsSeedDeterministic) {
  const auto ds = tiny_dataset();
  const auto a = ds.split(0.67, 42);
  const auto b = ds.split(0.67, 42);
  EXPECT_EQ(a.train_rows, b.train_rows);
  // With only 3 rows two seeds can produce the same partition; some seed in
  // a small set must differ.
  bool any_differ = false;
  for (std::uint64_t seed = 43; seed < 53 && !any_differ; ++seed) {
    any_differ = ds.split(0.67, seed).train_rows != a.train_rows;
  }
  EXPECT_TRUE(any_differ);
}

TEST(PerfDataset, SaveLoadRoundTrip) {
  std::vector<LoweredGemm> shapes(4);
  shapes[0] = {{64, 64, 64}, Transform::kIm2col, "a", "net", 1};
  shapes[1] = {{1, 4096, 1000}, Transform::kFullyConnected, "b", "net", 1};
  shapes[2] = {{784, 64, 64}, Transform::kWinograd, "c", "net", 4};
  shapes[3] = {{196, 64, 64}, Transform::kWinograd4, "c", "net", 4};
  data::RunnerOptions options;
  options.iterations = 2;
  const auto ds = run_model_benchmarks(
      shapes, perf::DeviceSpec::amd_r9_nano(), options);
  const auto path =
      std::filesystem::temp_directory_path() / "aks_dataset_roundtrip.csv";
  ds.save(path);
  const auto loaded = PerfDataset::load(path);
  EXPECT_EQ(loaded.num_shapes(), ds.num_shapes());
  EXPECT_EQ(loaded.num_configs(), ds.num_configs());
  for (std::size_t r = 0; r < ds.num_shapes(); ++r) {
    EXPECT_EQ(loaded.shapes()[r].shape, ds.shapes()[r].shape);
    EXPECT_EQ(loaded.shapes()[r].transform, ds.shapes()[r].transform)
        << "row " << r;
    EXPECT_EQ(loaded.shapes()[r].layer, ds.shapes()[r].layer);
    EXPECT_EQ(loaded.shapes()[r].batch, ds.shapes()[r].batch);
    for (std::size_t c = 0; c < ds.num_configs(); ++c) {
      EXPECT_NEAR(loaded.times()(r, c), ds.times()(r, c),
                  1e-9 * ds.times()(r, c));
    }
  }
  std::filesystem::remove(path);
}

TEST(PerfDataset, LoadRejectsMalformedCellsWithError) {
  const auto path =
      std::filesystem::temp_directory_path() / "aks_dataset_malformed.csv";
  tiny_dataset().save(path);
  const auto valid = common::read_csv(path);
  // (column, text): each cell is read whole, so none of these may load as
  // its numeric prefix or escape as a std:: exception, and a transform cell
  // must name a transform.
  const std::vector<std::pair<std::size_t, std::string>> cells = {
      {4, "12x"}, {3, "abc"}, {5, "-1"}, {6, "99999999999999999999"},
      {7, "0.5x"}, {8, " 0.5"}, {9, ""}, {2, "garbage"}};
  for (const auto& [column, text] : cells) {
    auto table = valid;
    table.rows[0][column] = text;
    common::write_csv(path, table);
    EXPECT_THROW((void)PerfDataset::load(path), common::Error)
        << "column " << column << " = '" << text << "'";
  }
  std::filesystem::remove(path);
}

TEST(Runner, DeterministicAcrossRuns) {
  const auto a = tiny_dataset();
  const auto b = tiny_dataset();
  for (std::size_t r = 0; r < a.num_shapes(); ++r)
    for (std::size_t c = 0; c < a.num_configs(); ++c)
      ASSERT_DOUBLE_EQ(a.times()(r, c), b.times()(r, c));
}

TEST(Runner, ProgressCallbackFires) {
  std::vector<LoweredGemm> shapes(2);
  shapes[0].shape = {8, 8, 8};
  shapes[1].shape = {16, 16, 16};
  RunnerOptions options;
  std::atomic<std::size_t> calls{0};
  options.progress = [&](std::size_t, std::size_t total) {
    EXPECT_EQ(total, 2u);
    ++calls;
  };
  (void)run_model_benchmarks(shapes, perf::DeviceSpec::amd_r9_nano(), options);
  EXPECT_EQ(calls.load(), 2u);
}

TEST(Runner, HostRunExecutesKernel) {
  const double seconds =
      time_host_run(gemm::KernelConfig{2, 2, 2, 8, 8}, {32, 16, 32});
  EXPECT_GT(seconds, 0.0);
}

TEST(Runner, RejectsBadOptions) {
  std::vector<LoweredGemm> shapes(1);
  shapes[0].shape = {8, 8, 8};
  RunnerOptions options;
  options.iterations = 0;
  EXPECT_THROW(
      run_model_benchmarks(shapes, perf::DeviceSpec::amd_r9_nano(), options),
      common::Error);
  EXPECT_THROW(run_model_benchmarks({}, perf::DeviceSpec::amd_r9_nano(), {}),
               common::Error);
}

}  // namespace
}  // namespace aks::data
