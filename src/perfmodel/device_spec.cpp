#include "perfmodel/device_spec.hpp"

#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"

namespace aks::perf {

namespace {

/// Field table shared by the reader and the writer so they cannot drift.
struct Field {
  /// Sets the field from its text; `where` names the file line in errors.
  std::function<void(DeviceSpec&, const std::string& text,
                     const std::string& where)>
      set;
  std::function<std::string(const DeviceSpec&)> get;
};

const std::map<std::string, Field>& fields() {
  auto num_field = [](auto member) {
    return Field{
        [member](DeviceSpec& spec, const std::string& text,
                 const std::string& where) {
          spec.*member = common::parse_number<
              std::remove_reference_t<decltype(spec.*member)>>(text, where);
        },
        [member](const DeviceSpec& spec) {
          using T = std::remove_cvref_t<decltype(spec.*member)>;
          if constexpr (std::is_integral_v<T>) {
            return std::to_string(spec.*member);
          } else {
            return common::format_fixed(static_cast<double>(spec.*member), 6);
          }
        }};
  };
  static const std::map<std::string, Field> table = {
      {"name",
       {[](DeviceSpec& spec, const std::string& text,
           const std::string&) { spec.name = text; },
        [](const DeviceSpec& spec) { return spec.name; }}},
      {"num_cus", num_field(&DeviceSpec::num_cus)},
      {"simd_width", num_field(&DeviceSpec::simd_width)},
      {"clock_ghz", num_field(&DeviceSpec::clock_ghz)},
      {"dram_bw_gbps", num_field(&DeviceSpec::dram_bw_gbps)},
      {"registers_per_lane", num_field(&DeviceSpec::registers_per_lane)},
      {"max_waves_per_cu", num_field(&DeviceSpec::max_waves_per_cu)},
      {"max_groups_per_cu", num_field(&DeviceSpec::max_groups_per_cu)},
      {"llc_bytes", num_field(&DeviceSpec::llc_bytes)},
      {"cacheline_bytes", num_field(&DeviceSpec::cacheline_bytes)},
      {"launch_overhead_s", num_field(&DeviceSpec::launch_overhead_s)},
      {"alu_hiding_waves", num_field(&DeviceSpec::alu_hiding_waves)},
      {"mem_hiding_waves", num_field(&DeviceSpec::mem_hiding_waves)},
      {"loop_overhead_cycles", num_field(&DeviceSpec::loop_overhead_cycles)},
      {"max_work_group_size", num_field(&DeviceSpec::max_work_group_size)},
      {"local_memory_bytes", num_field(&DeviceSpec::local_memory_bytes)},
      {"vector_width", num_field(&DeviceSpec::vector_width)},
  };
  return table;
}

}  // namespace

DeviceSpec DeviceSpec::from_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  AKS_CHECK(in.is_open(), "cannot open device file " << path);
  DeviceSpec spec = amd_r9_nano();  // unset keys keep sensible defaults
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const auto trimmed = common::trim(line);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    AKS_CHECK(eq != std::string_view::npos,
              path << ":" << line_no << ": expected 'key = value'");
    const std::string key{common::trim(trimmed.substr(0, eq))};
    const std::string value{common::trim(trimmed.substr(eq + 1))};
    const auto it = fields().find(key);
    AKS_CHECK(it != fields().end(),
              path << ":" << line_no << ": unknown device key '" << key << "'");
    std::ostringstream where;
    where << path << ":" << line_no << " (" << key << ")";
    it->second.set(spec, value, where.str());
  }
  AKS_CHECK(spec.num_cus > 0 && spec.simd_width > 0 && spec.clock_ghz > 0,
            "device file " << path << " describes a degenerate device");
  return spec;
}

void DeviceSpec::save(const std::filesystem::path& path) const {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream out(path);
  AKS_CHECK(out.is_open(), "cannot write device file " << path);
  out << "# AKS device description (see perfmodel/device_spec.hpp)\n";
  for (const auto& [key, field] : fields()) {
    out << key << " = " << field.get(*this) << "\n";
  }
  AKS_CHECK(out.good(), "I/O error writing device file " << path);
}

DeviceSpec DeviceSpec::amd_r9_nano() {
  DeviceSpec d;
  d.name = "AMD R9 Nano (model)";
  d.num_cus = 64;
  d.simd_width = 64;
  d.clock_ghz = 1.0;
  d.dram_bw_gbps = 512.0;
  d.registers_per_lane = 256;
  d.max_waves_per_cu = 40;
  d.max_groups_per_cu = 16;
  d.llc_bytes = 2u << 20;  // 2 MiB L2
  d.cacheline_bytes = 64;
  d.launch_overhead_s = 8e-6;
  d.alu_hiding_waves = 4.0;
  d.mem_hiding_waves = 8.0;
  d.loop_overhead_cycles = 10.0;
  d.max_work_group_size = 256;  // GCN3 launch limit
  d.local_memory_bytes = 64 * 1024;  // LDS per work-group
  d.vector_width = 4;  // dwordx4 vector loads
  return d;
}

DeviceSpec DeviceSpec::embedded_accelerator() {
  DeviceSpec d;
  d.name = "Embedded accelerator (model)";
  d.num_cus = 4;
  d.simd_width = 16;
  d.clock_ghz = 0.8;
  d.dram_bw_gbps = 14.9;  // LPDDR4-3733 x32
  d.registers_per_lane = 128;
  d.max_waves_per_cu = 16;
  d.max_groups_per_cu = 8;
  d.llc_bytes = 512u << 10;
  d.cacheline_bytes = 64;
  d.launch_overhead_s = 25e-6;
  d.alu_hiding_waves = 3.0;
  d.mem_hiding_waves = 6.0;
  d.loop_overhead_cycles = 14.0;
  d.max_work_group_size = 256;
  // 48 KB: covers the zoo's largest staged panels (33 KB for the 8x8x8
  // tiles at 128-item groups) with headroom; smaller embedded parts are
  // modelled in tests via custom specs.
  d.local_memory_bytes = 48 * 1024;
  d.vector_width = 4;
  return d;
}

DeviceSpec DeviceSpec::integrated_gpu() {
  DeviceSpec d;
  d.name = "Integrated GPU (model)";
  d.num_cus = 24;
  d.simd_width = 8;
  d.clock_ghz = 1.15;
  d.dram_bw_gbps = 34.1;  // dual-channel DDR4-2133
  d.registers_per_lane = 128;
  d.max_waves_per_cu = 28;
  d.max_groups_per_cu = 16;
  d.llc_bytes = 768u << 10;
  d.cacheline_bytes = 64;
  d.launch_overhead_s = 12e-6;
  d.alu_hiding_waves = 4.0;
  d.mem_hiding_waves = 8.0;
  d.loop_overhead_cycles = 12.0;
  d.max_work_group_size = 256;
  d.local_memory_bytes = 64 * 1024;  // Gen9 SLM
  d.vector_width = 4;
  return d;
}

std::vector<DeviceSpec> DeviceSpec::shipped() {
  return {amd_r9_nano(), embedded_accelerator(), integrated_gpu()};
}

std::array<double, DeviceSpec::kNumSimilarityFeatures>
DeviceSpec::similarity_features() const {
  // log2 scaling keeps every axis in comparable units (one doubling = one
  // unit) regardless of whether the raw quantity is 4 lanes or 512 GB/s.
  const auto log2_of = [](double v) { return std::log2(std::max(v, 1e-12)); };
  return {
      log2_of(static_cast<double>(num_cus)),
      log2_of(static_cast<double>(simd_width)),
      log2_of(clock_ghz),
      log2_of(dram_bw_gbps),
      log2_of(static_cast<double>(registers_per_lane)),
      log2_of(static_cast<double>(llc_bytes)),
      log2_of(static_cast<double>(local_memory_bytes)),
      log2_of(static_cast<double>(max_waves_per_cu)),
  };
}

std::uint64_t DeviceSpec::fingerprint() const {
  // Digest the canonical key=value serialization (the same field table
  // from_file/save use), so the fingerprint covers every field exactly once
  // and cannot drift from the file format.
  std::uint64_t h = common::fnv1a64("aks-device-v1");
  for (const auto& [key, field] : fields()) {
    const std::string value = field.get(*this);
    h = common::fnv1a64(key.data(), key.size(), h);
    h = common::fnv1a64("=", 1, h);
    h = common::fnv1a64(value.data(), value.size(), h);
    h = common::fnv1a64("\n", 1, h);
  }
  return h;
}

double device_similarity(const DeviceSpec& a, const DeviceSpec& b) {
  const auto fa = a.similarity_features();
  const auto fb = b.similarity_features();
  double d2 = 0.0;
  for (std::size_t i = 0; i < fa.size(); ++i) {
    const double d = fa[i] - fb[i];
    d2 += d * d;
  }
  return 1.0 / (1.0 + std::sqrt(d2));
}

}  // namespace aks::perf
