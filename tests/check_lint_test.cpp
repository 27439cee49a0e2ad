// Positive-path coverage of the akscheck passes: the shipped configuration
// space lints clean on every shipped device, reports round-trip through
// CSV, findings name only the offending config, and the checked execution
// mode replays real kernels without findings.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <string>

#include "check/checked_conv.hpp"
#include "check/checked_gemm.hpp"
#include "check/config_lint.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "gemm/access_metadata.hpp"
#include "gemm/config.hpp"
#include "perfmodel/device_spec.hpp"

namespace {

using namespace aks;

std::vector<perf::DeviceSpec> shipped_devices() {
  return {perf::DeviceSpec::amd_r9_nano(),
          perf::DeviceSpec::embedded_accelerator(),
          perf::DeviceSpec::integrated_gpu()};
}

TEST(ConfigLint, ShippedRegistryIsCleanOnAllShippedDevices) {
  const auto& configs = gemm::enumerate_configs();
  const auto devices = shipped_devices();
  const auto report = check::lint_configs(configs, devices);
  EXPECT_EQ(report.configs_checked, 640u);
  EXPECT_EQ(report.devices_checked, 3u);
  for (const auto& finding : report.findings) {
    ADD_FAILURE() << finding.to_diagnostic().format();
  }
  EXPECT_TRUE(report.clean());
}

TEST(ConfigLint, FootprintGrowsWithTileAndGroup) {
  gemm::KernelConfig small;  // t1x1_a1_wg8x8
  gemm::KernelConfig large;
  large.row_tile = 8;
  large.col_tile = 8;
  large.acc_size = 8;
  large.wg_rows = 16;
  large.wg_cols = 16;
  const auto footprint = [](const gemm::KernelConfig& config) {
    return gemm::tiled_access_pattern(config).local_memory_bytes;
  };
  EXPECT_LT(footprint(small), footprint(large));
  // Exact value for the small config: (8*1*1 + 1*8*1) floats.
  EXPECT_EQ(footprint(small), 16u * sizeof(float));
}

TEST(ConfigLint, ReportRoundTripsThroughCsv) {
  gemm::KernelConfig bad;
  bad.wg_rows = 48;
  bad.wg_cols = 48;
  bad.acc_size = 6;
  const std::vector<gemm::KernelConfig> configs = {bad};
  const auto devices = shipped_devices();
  const auto report = check::lint_configs(configs, devices);
  ASSERT_FALSE(report.clean());

  const auto path = std::filesystem::temp_directory_path() /
                    "akscheck_lint_roundtrip_test.csv";
  report.save_csv(path);
  const auto loaded = check::LintReport::load_csv(path);
  std::filesystem::remove(path);

  ASSERT_EQ(loaded.findings.size(), report.findings.size());
  EXPECT_EQ(loaded.configs_checked, report.configs_checked);
  EXPECT_EQ(loaded.devices_checked, report.devices_checked);
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    EXPECT_EQ(loaded.findings[i].config_index, report.findings[i].config_index);
    EXPECT_EQ(loaded.findings[i].config, report.findings[i].config);
    EXPECT_EQ(loaded.findings[i].device, report.findings[i].device);
    EXPECT_EQ(loaded.findings[i].rule, report.findings[i].rule);
  }
}

TEST(ConfigLint, LoadRejectsMalformedIndexWithError) {
  gemm::KernelConfig bad;
  bad.wg_rows = 48;
  bad.wg_cols = 48;
  const std::vector<gemm::KernelConfig> configs = {bad};
  const auto path = std::filesystem::temp_directory_path() /
                    "akscheck_lint_malformed_test.csv";
  check::lint_configs(configs, shipped_devices()).save_csv(path);
  const auto valid = common::read_csv(path);
  for (const char* text : {"abc", "0x", "-1", ""}) {
    auto table = valid;
    table.rows[1][table.column_index("config_index")] = text;
    common::write_csv(path, table);
    EXPECT_THROW((void)check::LintReport::load_csv(path), common::Error)
        << text;
  }
  std::filesystem::remove(path);
}

TEST(ConfigLint, ValidMaskFlagsOnlyOffendingConfigs) {
  gemm::KernelConfig good;  // defaults lint clean everywhere
  gemm::KernelConfig bad;
  bad.wg_rows = 48;
  bad.wg_cols = 48;
  const std::vector<gemm::KernelConfig> configs = {good, bad, good};
  const auto devices = shipped_devices();
  const auto report = check::lint_configs(configs, devices);

  // The oversized group is invalid on every device; the good configs at
  // indices 0 and 2 draw no finding anywhere. Each diagnostic names its
  // device once.
  std::set<std::string> flagged_devices;
  for (const auto& finding : report.findings) {
    EXPECT_EQ(finding.config_index, 1u) << finding.message;
    flagged_devices.insert(finding.device);
    const std::string text = finding.to_diagnostic().format();
    const auto first = text.find(finding.device);
    ASSERT_NE(first, std::string::npos) << text;
    EXPECT_EQ(text.find(finding.device, first + 1), std::string::npos) << text;
  }
  EXPECT_EQ(flagged_devices.size(), devices.size());
}

TEST(LintRule, NamesRoundTrip) {
  for (const auto rule :
       {check::LintRule::work_group_size, check::LintRule::local_memory,
        check::LintRule::vector_width}) {
    EXPECT_EQ(check::parse_lint_rule(check::to_string(rule)), rule);
  }
}

// --- checked execution over real kernels ------------------------------------

TEST(CheckedExecution, RepresentativeConfigsReplayClean) {
  // One config per work-group shape family, on a ragged shape: exercises
  // interior tiles, edge guards and K remainders through the real kernels.
  for (const auto& config_name :
       {"t4x4_a2_wg8x8", "t1x1_a1_wg1x128", "t8x2_a4_wg16x8"}) {
    const auto config = gemm::KernelConfig::parse(config_name);
    const auto result = check::check_gemm(config, {17, 13, 9});
    EXPECT_TRUE(result.clean()) << config_name << ": "
                                << (result.findings.empty()
                                        ? "numeric divergence"
                                        : result.findings[0].format());
    EXPECT_LE(result.max_abs_error, 1e-3);
  }
}

TEST(CheckedExecution, BatchedAndHierarchicalReplayClean) {
  const auto config = gemm::KernelConfig::parse("t2x2_a2_wg8x8");
  EXPECT_TRUE(check::check_batched_gemm(config, {9, 5, 7}, 3).clean());
}

TEST(CheckedExecution, ConvLoweringsReplayClean) {
  const auto config = gemm::KernelConfig::parse("t2x2_a2_wg8x8");
  const conv::ConvShape shape = {.batch = 1,
                                 .in_height = 9,
                                 .in_width = 7,
                                 .in_channels = 5,
                                 .out_channels = 6,
                                 .kernel = 3,
                                 .stride = 1,
                                 .padding = 1};
  const auto lowerings = conv::lowerings(shape);
  ASSERT_EQ(lowerings.size(), 3u);
  for (const auto& lowering : lowerings) {
    EXPECT_TRUE(check::check_conv(lowering.transform, config, shape).clean())
        << conv::to_string(lowering.transform);
  }
}

TEST(CheckedExecution, RegistrySubsetSweepIsClean) {
  // The full 640-config sweep runs in CI via the akscheck binary; keep the
  // unit test to a slice so the suite stays fast.
  check::RegistryCheckOptions options;
  options.max_configs = 12;
  options.shapes = {{17, 13, 9}};
  const auto summary = check::check_registry(options);
  EXPECT_EQ(summary.configs_checked, 12u);
  for (const auto& finding : summary.findings) {
    ADD_FAILURE() << finding.format();
  }
  EXPECT_TRUE(summary.clean());
}

}  // namespace
