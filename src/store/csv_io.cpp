#include "store/csv_io.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "gemm/registry.hpp"
#include "store/selection_store.hpp"

namespace aks::store {

namespace {

/// Parses fields[column]; an error names the 1-based line and column plus
/// the field name, so a failed import points at the exact offending cell.
template <typename T>
T parse_field(const std::vector<std::string>& fields, std::size_t line_no,
              std::size_t column, const char* field_name, int base = 10) {
  std::ostringstream where;
  where << "store csv line " << line_no << ", column " << column + 1 << " ("
        << field_name << ")";
  return common::parse_number<T>(fields[column], where.str(), base);
}

}  // namespace

std::string fingerprint_hex(std::uint64_t fingerprint) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << fingerprint;
  return out.str();
}

Source source_from_string(const std::string& name) {
  if (name == "online-tuner") return Source::kOnlineTuner;
  if (name == "learned-selector") return Source::kLearnedSelector;
  if (name == "transfer") return Source::kTransfer;
  return Source::kImported;
}

std::vector<std::string> split_csv_row(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, ',')) fields.push_back(field);
  if (!line.empty() && line.back() == ',') fields.emplace_back();
  return fields;
}

void export_store_csv(const SelectionStore& store, std::ostream& out) {
  out << std::setprecision(17);
  for (const auto& profile : store.devices()) {
    out << "device," << fingerprint_hex(profile.fingerprint) << ","
        << profile.name;
    for (const double f : profile.features) out << "," << f;
    out << "\n";
  }
  const auto& configs = gemm::enumerate_configs();
  for (const auto& record : store.selections()) {
    out << "selection," << fingerprint_hex(record.device_fingerprint) << ","
        << record.shape.m << "," << record.shape.k << "," << record.shape.n
        << "," << record.config_index << ","
        << configs[record.config_index].name() << "," << record.warmup_seconds
        << "," << record.sweeps << "," << record.quarantined_candidates << ","
        << to_string(record.source) << ","
        << fingerprint_hex(record.cert_digest) << "\n";
  }
}

std::size_t import_store_csv(std::istream& in, SelectionStore& store) {
  const std::size_t num_configs = gemm::enumerate_configs().size();
  std::size_t imported = 0;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const auto fields = split_csv_row(line);
    if (fields[0] == "device") {
      AKS_CHECK(fields.size() ==
                    3 + perf::DeviceSpec::kNumSimilarityFeatures,
                "store csv line "
                    << line_no << ": device row needs "
                    << 3 + perf::DeviceSpec::kNumSimilarityFeatures
                    << " fields, got " << fields.size());
      DeviceProfileRecord profile;
      profile.fingerprint =
          parse_field<std::uint64_t>(fields, line_no, 1, "fingerprint", 16);
      profile.name = fields[2];
      for (std::size_t f = 0; f < profile.features.size(); ++f) {
        profile.features[f] =
            parse_field<double>(fields, line_no, 3 + f, "feature");
      }
      store.put_profile(std::move(profile));
      ++imported;
    } else if (fields[0] == "selection") {
      AKS_CHECK(fields.size() == 12,
                "store csv line " << line_no
                                  << ": selection row needs 12 fields, got "
                                  << fields.size());
      SelectionRecord record;
      record.device_fingerprint = parse_field<std::uint64_t>(
          fields, line_no, 1, "device_fingerprint", 16);
      record.shape.m = parse_field<std::size_t>(fields, line_no, 2, "m");
      record.shape.k = parse_field<std::size_t>(fields, line_no, 3, "k");
      record.shape.n = parse_field<std::size_t>(fields, line_no, 4, "n");
      record.config_index =
          parse_field<std::uint32_t>(fields, line_no, 5, "config_index");
      AKS_CHECK(record.config_index < num_configs,
                "store csv line " << line_no << ": config index "
                                  << record.config_index
                                  << " out of range (have " << num_configs
                                  << " configs)");
      // fields[6] is the config name, informational only.
      record.warmup_seconds =
          parse_field<double>(fields, line_no, 7, "warmup_seconds");
      record.sweeps = parse_field<std::uint32_t>(fields, line_no, 8, "sweeps");
      record.quarantined_candidates = parse_field<std::uint32_t>(
          fields, line_no, 9, "quarantined_candidates");
      record.source = source_from_string(fields[10]);
      record.cert_digest =
          parse_field<std::uint64_t>(fields, line_no, 11, "cert_digest", 16);
      if (store.put(std::move(record))) ++imported;
    } else {
      AKS_FAIL("store csv line " << line_no << ": unknown record type '"
                                 << fields[0] << "'");
    }
  }
  return imported;
}

}  // namespace aks::store
