#include "gemm/config.hpp"

#include <algorithm>
#include <bitset>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace aks::gemm {

namespace {

std::size_t tile_index(int value) {
  const auto it = std::find(kTileSizes.begin(), kTileSizes.end(), value);
  AKS_CHECK(it != kTileSizes.end(),
            "tile size " << value << " not in {1,2,4,8}");
  return static_cast<std::size_t>(std::distance(kTileSizes.begin(), it));
}

std::size_t wg_index(int rows, int cols) {
  const auto& shapes = work_group_shapes();
  const auto it = std::find(shapes.begin(), shapes.end(),
                            std::make_pair(rows, cols));
  AKS_CHECK(it != shapes.end(),
            "work-group shape " << rows << "x" << cols << " not supported");
  return static_cast<std::size_t>(std::distance(shapes.begin(), it));
}

}  // namespace

std::string KernelConfig::name() const {
  return "t" + std::to_string(row_tile) + "x" + std::to_string(col_tile) +
         "_a" + std::to_string(acc_size) + "_wg" + std::to_string(wg_rows) +
         "x" + std::to_string(wg_cols);
}

KernelConfig KernelConfig::parse(const std::string& name) {
  // Format: t<rt>x<ct>_a<acc>_wg<rows>x<cols>
  const auto parts = common::split(name, '_');
  AKS_CHECK(parts.size() == 3 && common::starts_with(parts[0], "t") &&
                common::starts_with(parts[1], "a") &&
                common::starts_with(parts[2], "wg"),
            "malformed kernel config name: " << name);
  const auto tiles = common::split(parts[0].substr(1), 'x');
  const auto wg = common::split(parts[2].substr(2), 'x');
  AKS_CHECK(tiles.size() == 2 && wg.size() == 2,
            "malformed kernel config name: " << name);
  const std::string what = "kernel config name " + name;
  KernelConfig config;
  config.row_tile = common::parse_number<int>(tiles[0], what);
  config.col_tile = common::parse_number<int>(tiles[1], what);
  config.acc_size = common::parse_number<int>(parts[1].substr(1), what);
  config.wg_rows = common::parse_number<int>(wg[0], what);
  config.wg_cols = common::parse_number<int>(wg[1], what);
  // Validate by round-tripping through the canonical index.
  (void)config_index(config);
  return config;
}

const std::array<std::pair<int, int>, 10>& work_group_shapes() {
  // The ten shapes listed in Section II of the paper.
  static const std::array<std::pair<int, int>, 10> shapes = {{
      {1, 64}, {1, 128}, {8, 8}, {8, 16}, {8, 32},
      {16, 8}, {16, 16}, {32, 8}, {64, 1}, {128, 1},
  }};
  return shapes;
}

const std::vector<KernelConfig>& enumerate_configs() {
  static const std::vector<KernelConfig> configs = [] {
    std::vector<KernelConfig> out;
    out.reserve(640);
    for (int rt : kTileSizes)
      for (int ct : kTileSizes)
        for (int acc : kTileSizes)
          for (const auto& [rows, cols] : work_group_shapes())
            out.push_back(KernelConfig{rt, ct, acc, rows, cols});
    return out;
  }();
  return configs;
}

std::size_t instantiation_index(const KernelConfig& config) {
  const std::size_t rt = tile_index(config.row_tile);
  const std::size_t ct = tile_index(config.col_tile);
  const std::size_t acc = tile_index(config.acc_size);
  return (rt * kTileSizes.size() + ct) * kTileSizes.size() + acc;
}

std::size_t config_index(const KernelConfig& config) {
  const std::size_t kernel = instantiation_index(config);
  return kernel * work_group_shapes().size() +
         wg_index(config.wg_rows, config.wg_cols);
}

std::size_t count_compiled_kernels(const std::vector<KernelConfig>& configs) {
  std::bitset<kInstantiationCount> compiled;
  for (const auto& c : configs) compiled.set(instantiation_index(c));
  return compiled.count();
}

}  // namespace aks::gemm
