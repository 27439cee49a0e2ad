#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "perfmodel/device_spec.hpp"

namespace aks::perf {
namespace {

std::filesystem::path temp_path(const std::string& name) {
  return std::filesystem::temp_directory_path() / ("aks_device_" + name);
}

TEST(DeviceFile, SaveLoadRoundTripsEveryField) {
  DeviceSpec original = DeviceSpec::embedded_accelerator();
  original.name = "Custom accelerator";
  original.llc_bytes = 123456;
  original.clock_ghz = 1.375;
  const auto path = temp_path("roundtrip.txt");
  original.save(path);
  const DeviceSpec loaded = DeviceSpec::from_file(path);
  EXPECT_EQ(loaded.name, original.name);
  EXPECT_EQ(loaded.num_cus, original.num_cus);
  EXPECT_EQ(loaded.simd_width, original.simd_width);
  EXPECT_NEAR(loaded.clock_ghz, original.clock_ghz, 1e-6);
  EXPECT_NEAR(loaded.dram_bw_gbps, original.dram_bw_gbps, 1e-6);
  EXPECT_EQ(loaded.registers_per_lane, original.registers_per_lane);
  EXPECT_EQ(loaded.max_waves_per_cu, original.max_waves_per_cu);
  EXPECT_EQ(loaded.max_groups_per_cu, original.max_groups_per_cu);
  EXPECT_EQ(loaded.llc_bytes, original.llc_bytes);
  EXPECT_EQ(loaded.cacheline_bytes, original.cacheline_bytes);
  EXPECT_NEAR(loaded.launch_overhead_s, original.launch_overhead_s, 1e-12);
  EXPECT_NEAR(loaded.loop_overhead_cycles, original.loop_overhead_cycles,
              1e-9);
  std::filesystem::remove(path);
}

TEST(DeviceFile, PartialFileKeepsDefaults) {
  const auto path = temp_path("partial.txt");
  std::ofstream(path) << "# only override two things\n"
                      << "name = Half Nano\n"
                      << "num_cus = 32\n";
  const DeviceSpec loaded = DeviceSpec::from_file(path);
  EXPECT_EQ(loaded.name, "Half Nano");
  EXPECT_EQ(loaded.num_cus, 32);
  // Everything else stays at the R9 Nano defaults.
  EXPECT_EQ(loaded.simd_width, DeviceSpec::amd_r9_nano().simd_width);
  EXPECT_EQ(loaded.dram_bw_gbps, DeviceSpec::amd_r9_nano().dram_bw_gbps);
  std::filesystem::remove(path);
}

TEST(DeviceFile, CommentsAndWhitespaceTolerated) {
  const auto path = temp_path("comments.txt");
  std::ofstream(path) << "\n"
                      << "   # full-line comment\n"
                      << "  clock_ghz =  2.5   # trailing comment\n";
  EXPECT_NEAR(DeviceSpec::from_file(path).clock_ghz, 2.5, 1e-9);
  std::filesystem::remove(path);
}

TEST(DeviceFile, UnknownKeyRejected) {
  const auto path = temp_path("unknown.txt");
  std::ofstream(path) << "warp_size = 32\n";  // typo'd key
  EXPECT_THROW((void)DeviceSpec::from_file(path), common::Error);
  std::filesystem::remove(path);
}

TEST(DeviceFile, MalformedValueRejected) {
  // Each value is read whole and must fit its field: never a numeric
  // prefix, never a wrapped value.
  for (const char* line :
       {"num_cus = many\n", "num_cus = 4294967297\n",
        "local_memory_bytes = -1\n", "clock_ghz = 1e999\n",
        "simd_width = 64 lanes\n"}) {
    const auto path = temp_path("bad_value.txt");
    std::ofstream(path) << line;
    EXPECT_THROW((void)DeviceSpec::from_file(path), common::Error) << line;
    std::filesystem::remove(path);
  }
}

TEST(DeviceFile, MissingEqualsRejected) {
  const auto path = temp_path("no_eq.txt");
  std::ofstream(path) << "num_cus 64\n";
  EXPECT_THROW((void)DeviceSpec::from_file(path), common::Error);
  std::filesystem::remove(path);
}

TEST(DeviceFile, DegenerateDeviceRejected) {
  const auto path = temp_path("degenerate.txt");
  std::ofstream(path) << "num_cus = 0\n";
  EXPECT_THROW((void)DeviceSpec::from_file(path), common::Error);
  std::filesystem::remove(path);
}

TEST(DeviceFile, MissingFileRejected) {
  EXPECT_THROW((void)DeviceSpec::from_file("/nonexistent/device.txt"),
               common::Error);
}

}  // namespace
}  // namespace aks::perf
