#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gemm/config.hpp"
#include "gemm/reference.hpp"
#include "gemm/registry.hpp"
#include "gemm/tiled_kernel.hpp"
#include "syclrt/queue.hpp"

namespace aks::gemm {
namespace {

TEST(Config, EnumerationHas640Entries) {
  const auto& configs = enumerate_configs();
  EXPECT_EQ(configs.size(), 640u);
  // All distinct.
  std::set<std::string> names;
  for (const auto& c : configs) names.insert(c.name());
  EXPECT_EQ(names.size(), 640u);
}

TEST(Config, IndexRoundTripsForAll) {
  const auto& configs = enumerate_configs();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(config_index(configs[i]), i);
  }
}

TEST(Config, NameParseRoundTrip) {
  for (const auto& config : enumerate_configs()) {
    EXPECT_EQ(KernelConfig::parse(config.name()), config);
  }
}

TEST(Config, ParseRejectsMalformedNames) {
  EXPECT_THROW(KernelConfig::parse(""), common::Error);
  EXPECT_THROW(KernelConfig::parse("t4x4"), common::Error);
  EXPECT_THROW(KernelConfig::parse("t4x4_a2_wg9x9"), common::Error);
  EXPECT_THROW(KernelConfig::parse("t3x4_a2_wg8x8"), common::Error);
  EXPECT_THROW(KernelConfig::parse("txx4_a2_wg8x8"), common::Error);
  // Each number in the name is read whole: a trailing character is an error.
  EXPECT_THROW(KernelConfig::parse("t1x1_a1z_wg8x8"), common::Error);
  EXPECT_THROW(KernelConfig::parse("t1x1_a1_wg8x8 "), common::Error);
  EXPECT_THROW(KernelConfig::parse("t+1x1_a1_wg8x8"), common::Error);
}

TEST(Config, WorkGroupShapesMatchPaper) {
  const auto& shapes = work_group_shapes();
  EXPECT_EQ(shapes.size(), 10u);
  EXPECT_EQ(shapes.front(), std::make_pair(1, 64));
  EXPECT_EQ(shapes.back(), std::make_pair(128, 1));
  for (const auto& [r, c] : shapes) EXPECT_GE(r * c, 64);
}

TEST(Config, RegistersGrowWithTiles) {
  KernelConfig small{1, 1, 1, 8, 8};
  KernelConfig large{8, 8, 8, 8, 8};
  EXPECT_LT(small.registers_per_item(), large.registers_per_item());
}

TEST(Config, CompiledKernelCountIgnoresWorkGroups) {
  std::vector<KernelConfig> configs = {
      {4, 4, 2, 8, 8}, {4, 4, 2, 16, 16}, {4, 4, 4, 8, 8}};
  EXPECT_EQ(count_compiled_kernels(configs), 2u);
  EXPECT_EQ(count_compiled_kernels(enumerate_configs()), 64u);
}

// Every instantiation writes the same bits, so an entry that launched the
// wrong kernel would pass every output check. The entry under a config's
// instantiation_index must be that config's own (row_tile, col_tile,
// acc_size), and its launches must have that tile's geometry.
TEST(Registry, EachEntryIsItsOwnInstantiation) {
  EXPECT_EQ(registry_size(), 64u);
  const GemmShape shape{37, 5, 29};  // ragged against every tile size
  constexpr std::size_t kBatch = 3;
  std::vector<float> a(kBatch * shape.m * shape.k);
  std::vector<float> b(kBatch * shape.k * shape.n);
  std::vector<float> c(kBatch * shape.m * shape.n);
  const auto flat = [](std::vector<float>& v, std::size_t size) {
    return std::span<float>(v).first(size);
  };
  const auto padded = [](std::size_t extent, int tile, int group) {
    const std::size_t tiles = (extent + static_cast<std::size_t>(tile) - 1) /
                              static_cast<std::size_t>(tile);
    const auto g = static_cast<std::size_t>(group);
    return (tiles + g - 1) / g * g;
  };
  syclrt::Queue queue;
  std::set<std::size_t> indices;
  for (int rt : kTileSizes)
    for (int ct : kTileSizes)
      for (int acc : kTileSizes) {
        const KernelConfig config{rt, ct, acc, 8, 16};
        const std::size_t index = instantiation_index(config);
        indices.insert(index);
        const auto& entry = kTiledInstantiations<>[index];
        EXPECT_EQ(entry.row_tile, rt) << config.name();
        EXPECT_EQ(entry.col_tile, ct) << config.name();
        EXPECT_EQ(entry.acc_size, acc) << config.name();
        // One work-item per rt x ct output tile, padded to 8 x 16 groups.
        const std::size_t items =
            padded(shape.m, rt, 8) * padded(shape.n, ct, 16);
        EXPECT_EQ(launch_gemm(queue, config, flat(a, shape.m * shape.k),
                              flat(b, shape.k * shape.n),
                              flat(c, shape.m * shape.n), shape)
                      .item_count,
                  items)
            << config.name();
        EXPECT_EQ(launch_batched_gemm(queue, config, a, b, c, shape, kBatch)
                      .item_count,
                  kBatch * items)
            << config.name();
      }
  EXPECT_EQ(indices.size(), kInstantiationCount);
}

TEST(Registry, UnknownInstantiationThrows) {
  syclrt::Queue queue;
  const GemmShape shape{4, 4, 4};
  std::vector<float> a(16), b(16), c(16);
  for (const KernelConfig& config :
       {KernelConfig{3, 4, 4, 8, 8}, KernelConfig{4, 4, 16, 8, 8}}) {
    EXPECT_THROW((void)instantiation_index(config), common::Error);
    EXPECT_THROW(launch_gemm(queue, config, a, b, c, shape), common::Error);
    EXPECT_THROW(launch_batched_gemm(queue, config, a, b, c, shape, 1),
                 common::Error);
  }
}

TEST(Shape, FlopsAndBytes) {
  GemmShape shape{4, 5, 6};
  EXPECT_DOUBLE_EQ(shape.flops(), 240.0);
  EXPECT_DOUBLE_EQ(shape.min_bytes(), 4.0 * (20 + 30 + 24));
  EXPECT_EQ(shape.to_string(), "4x5x6");
}

TEST(Reference, KnownProduct) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  const float a[] = {1, 2, 3, 4};
  const float b[] = {5, 6, 7, 8};
  float c[4];
  reference_gemm(a, b, c, GemmShape{2, 2, 2});
  EXPECT_FLOAT_EQ(c[0], 19.0f);
  EXPECT_FLOAT_EQ(c[1], 22.0f);
  EXPECT_FLOAT_EQ(c[2], 43.0f);
  EXPECT_FLOAT_EQ(c[3], 50.0f);
}

TEST(Reference, SizeMismatchThrows) {
  const float a[4] = {};
  const float b[4] = {};
  float c[4];
  EXPECT_THROW(reference_gemm(a, b, c, GemmShape{3, 2, 2}), common::Error);
}

TEST(Launch, OperandValidation) {
  syclrt::Queue queue;
  std::vector<float> a(6), b(8), c(12);
  const KernelConfig config{2, 2, 2, 8, 8};
  EXPECT_THROW(launch_gemm(queue, config, a, b, c, GemmShape{0, 2, 4}),
               common::Error);
  EXPECT_THROW(launch_gemm(queue, config, a, b, c, GemmShape{3, 3, 4}),
               common::Error);
}

/// Correctness of every compiled kernel against the reference, on a shape
/// chosen to exercise edge tiles (prime-ish dimensions), across several
/// work-group shapes.
class TiledKernelCorrectness
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TiledKernelCorrectness, MatchesReferenceOnAwkwardShape) {
  const auto [rt, ct, acc] = GetParam();
  const GemmShape shape{13, 7, 11};
  common::Rng rng(config_index(KernelConfig{rt, ct, acc, 8, 8}));
  std::vector<float> a(shape.m * shape.k);
  std::vector<float> b(shape.k * shape.n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  std::vector<float> expected(shape.m * shape.n);
  reference_gemm(a, b, expected, shape);

  syclrt::Queue queue;
  for (const auto& [wg_r, wg_c] : work_group_shapes()) {
    std::vector<float> c(shape.m * shape.n, -1.0f);
    const KernelConfig config{rt, ct, acc, wg_r, wg_c};
    launch_gemm(queue, config, a, b, c, shape);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c[i], expected[i], 1e-3f)
          << config.name() << " element " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllInstantiations, TiledKernelCorrectness,
    ::testing::Combine(::testing::ValuesIn(kTileSizes),
                       ::testing::ValuesIn(kTileSizes),
                       ::testing::ValuesIn(kTileSizes)),
    [](const auto& param_info) {
      return "t" + std::to_string(std::get<0>(param_info.param)) + "x" +
             std::to_string(std::get<1>(param_info.param)) + "_a" +
             std::to_string(std::get<2>(param_info.param));
    });

/// Shapes that stress specific paths: exact tile fit, single row/column,
/// K smaller than the accumulator step, and a larger aligned case.
class ShapeEdgeCases : public ::testing::TestWithParam<GemmShape> {};

TEST_P(ShapeEdgeCases, Tile4x4Acc4MatchesReference) {
  const GemmShape shape = GetParam();
  common::Rng rng(99);
  std::vector<float> a(shape.m * shape.k);
  std::vector<float> b(shape.k * shape.n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> expected(shape.m * shape.n);
  reference_gemm(a, b, expected, shape);

  syclrt::Queue queue;
  std::vector<float> c(shape.m * shape.n);
  launch_gemm(queue, KernelConfig{4, 4, 4, 8, 8}, a, b, c, shape);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], expected[i], 1e-3f) << shape.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(EdgeShapes, ShapeEdgeCases,
                         ::testing::Values(GemmShape{8, 8, 8},
                                           GemmShape{1, 64, 1},
                                           GemmShape{1, 1, 1},
                                           GemmShape{64, 2, 64},
                                           GemmShape{5, 3, 2},
                                           GemmShape{32, 64, 48},
                                           GemmShape{17, 23, 29}));

TEST(Launch, EventCountsMatchGeometry) {
  syclrt::Queue queue;
  const GemmShape shape{16, 8, 16};
  std::vector<float> a(shape.m * shape.k, 1.0f);
  std::vector<float> b(shape.k * shape.n, 1.0f);
  std::vector<float> c(shape.m * shape.n);
  // 2x2 tiles -> 8x8 tile grid; wg 8x8 -> exactly one group.
  const auto event = launch_gemm(queue, KernelConfig{2, 2, 2, 8, 8}, a, b, c,
                                 shape);
  EXPECT_EQ(event.group_count, 1u);
  EXPECT_EQ(event.item_count, 64u);
  // Every output should be K (sum of 1*1 K times).
  for (const float v : c) EXPECT_FLOAT_EQ(v, 8.0f);
}


/// Every config writes exactly the bits of reference_gemm, which sums k in
/// ascending order in float: all 640 configs through launch_gemm and all
/// 64 instantiations through launch_batched_gemm, on the pool and under
/// deterministic replay. Four shapes are ragged in every dimension. All but
/// 13x7x11 have K above the kernels' 128-value K chunk (kKChunk), so a
/// work-group crosses chunk boundaries: in one-row blocks (1x300x257, every
/// run a row edge), on whole tiles (16x520x24, for every config), and in
/// 9x263x1100, which is wide enough that every work-group shape gets full
/// runs and a run cut at the logical edge, with full rows, a row edge, a
/// last tile crossing N for 8-column tiles, and a K remainder after two
/// chunks for every AccSize above 1.
TEST(GemmBitIdentity, EveryConfigMatchesReferenceBits) {
  const std::vector<GemmShape> shapes = {{67, 131, 37},
                                         {1, 300, 257},
                                         {13, 7, 11},
                                         {16, 520, 24},
                                         {9, 263, 1100}};
  constexpr std::size_t kBatch = 3;
  syclrt::Queue pooled;
  syclrt::Queue replay;
  replay.set_deterministic_replay(true);
  common::Rng rng(17);
  for (const GemmShape& shape : shapes) {
    std::vector<float> a(kBatch * shape.m * shape.k);
    std::vector<float> b(kBatch * shape.k * shape.n);
    for (auto& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    std::vector<float> expected(kBatch * shape.m * shape.n);
    for (std::size_t bi = 0; bi < kBatch; ++bi) {
      reference_gemm(
          std::span<const float>(a).subspan(bi * shape.m * shape.k,
                                            shape.m * shape.k),
          std::span<const float>(b).subspan(bi * shape.k * shape.n,
                                            shape.k * shape.n),
          std::span<float>(expected).subspan(bi * shape.m * shape.n,
                                             shape.m * shape.n),
          shape);
    }
    const std::span<const float> a1(a.data(), shape.m * shape.k);
    const std::span<const float> b1(b.data(), shape.k * shape.n);
    // Launches one config on both queues and compares the output bytes.
    const auto same_bits = [&](const KernelConfig& config, std::size_t batch)
        -> ::testing::AssertionResult {
      for (syclrt::Queue* queue : {&pooled, &replay}) {
        std::vector<float> c(batch * shape.m * shape.n,
                             std::numeric_limits<float>::quiet_NaN());
        if (batch == 1) {
          launch_gemm(*queue, config, a1, b1, c, shape);
        } else {
          launch_batched_gemm(*queue, config, a, b, c, shape, batch);
        }
        if (std::memcmp(c.data(), expected.data(), c.size() * sizeof(float)) !=
            0) {
          return ::testing::AssertionFailure()
                 << config.name() << " batch " << batch << " on "
                 << shape.to_string()
                 << (queue->deterministic_replay() ? " under replay" : "");
        }
      }
      return ::testing::AssertionSuccess();
    };
    for (const KernelConfig& config : enumerate_configs()) {
      ASSERT_TRUE(same_bits(config, 1));
    }
    std::size_t wg = 0;
    for (int rt : kTileSizes)
      for (int ct : kTileSizes)
        for (int acc : kTileSizes) {
          const auto [wg_r, wg_c] =
              work_group_shapes()[wg++ % work_group_shapes().size()];
          ASSERT_TRUE(same_bits(KernelConfig{rt, ct, acc, wg_r, wg_c}, kBatch));
        }
  }
}

}  // namespace
}  // namespace aks::gemm
