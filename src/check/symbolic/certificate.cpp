#include "check/symbolic/certificate.hpp"

#include <algorithm>
#include <sstream>

#include "check/checked_gemm.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "gemm/access_metadata.hpp"

namespace aks::check::symbolic {

namespace {

/// The CSV layer supports no quoting, so cells must not contain commas.
std::string sanitize_cell(std::string text) {
  std::replace(text.begin(), text.end(), ',', ';');
  return text;
}

std::string witness_cell(const WitnessShape& witness) {
  std::ostringstream os;
  os << witness.m << "x" << witness.k << "x" << witness.n << "x"
     << witness.batch;
  return os.str();
}

WitnessShape parse_witness_cell(const std::string& cell) {
  const auto dims = common::split(cell, 'x');
  AKS_CHECK(dims.size() == 4, "malformed witness cell '" << cell << "'");
  const auto dim = [&](std::size_t i) {
    return common::parse_number<std::int64_t>(dims[i],
                                              "certify report witness");
  };
  return {.m = dim(0), .k = dim(1), .n = dim(2), .batch = dim(3)};
}

gemm::GemmShape gemm_shape_of(const WitnessShape& witness) {
  return {.m = static_cast<std::size_t>(witness.m),
          .k = static_cast<std::size_t>(witness.k),
          .n = static_cast<std::size_t>(witness.n)};
}

bool is_capacity_rule(const std::string& rule) {
  return rule.rfind("capacity-", 0) == 0;
}

/// Device-independent access verification of one configuration: the tiled
/// summary plus the batched one, findings concatenated.
VerifyResult verify_config_access(const gemm::KernelConfig& config) {
  const auto pattern = gemm::tiled_access_pattern(config);
  VerifyResult result = verify_access_summary(summarize_tiled_gemm(pattern));
  VerifyResult batched =
      verify_access_summary(summarize_batched_tiled_gemm(pattern));
  for (auto& finding : batched.findings) {
    result.findings.push_back(std::move(finding));
  }
  if (batched.verdict == Verdict::unsafe ||
      (batched.verdict == Verdict::unknown &&
       result.verdict == Verdict::safe)) {
    result.verdict = batched.verdict;
    result.precondition.clear();
  }
  for (const auto& shape : batched.replay_candidates) {
    if (std::find(result.replay_candidates.begin(),
                  result.replay_candidates.end(),
                  shape) == result.replay_candidates.end()) {
      result.replay_candidates.push_back(shape);
    }
  }
  return result;
}

}  // namespace

std::size_t CertifyReport::count(Verdict verdict) const {
  return static_cast<std::size_t>(
      std::count_if(certificates.begin(), certificates.end(),
                    [&](const Certificate& c) { return c.verdict == verdict; }));
}

std::vector<bool> CertifyReport::safe_mask(std::size_t num_configs,
                                           const std::string& device) const {
  // Fail closed: a config starts unsafe and needs a SAFE certificate.
  std::vector<bool> safe(num_configs, false);
  std::vector<bool> refuted(num_configs, false);
  for (const auto& cert : certificates) {
    if (cert.config_index >= num_configs) continue;
    if (!device.empty() && cert.device != device) continue;
    if (cert.verdict == Verdict::safe) {
      safe[cert.config_index] = true;
    } else {
      refuted[cert.config_index] = true;
    }
  }
  for (std::size_t i = 0; i < num_configs; ++i) {
    safe[i] = safe[i] && !refuted[i];
  }
  return safe;
}

void CertifyReport::save_csv(const std::filesystem::path& path) const {
  common::CsvTable table;
  table.header = {"config_index", "config",  "device",       "verdict",
                  "rule",         "precondition", "witness",  "replay_clean",
                  "message"};
  // Provenance row so a round-tripped report keeps its sweep dimensions.
  table.rows.push_back({std::to_string(configs_checked), "#summary",
                        std::to_string(devices_checked), "summary", "", "",
                        "", "", ""});
  for (const auto& cert : certificates) {
    table.rows.push_back({std::to_string(cert.config_index),
                          sanitize_cell(cert.config),
                          sanitize_cell(cert.device),
                          std::string(to_string(cert.verdict)), cert.rule,
                          sanitize_cell(cert.precondition),
                          witness_cell(cert.witness),
                          cert.replay_clean ? "1" : "0",
                          sanitize_cell(cert.message)});
  }
  common::write_csv(path, table);
}

CertifyReport CertifyReport::load_csv(const std::filesystem::path& path) {
  const common::CsvTable table = common::read_csv(path);
  const std::size_t idx_col = table.column_index("config_index");
  const std::size_t cfg_col = table.column_index("config");
  const std::size_t dev_col = table.column_index("device");
  const std::size_t verdict_col = table.column_index("verdict");
  const std::size_t rule_col = table.column_index("rule");
  const std::size_t pre_col = table.column_index("precondition");
  const std::size_t wit_col = table.column_index("witness");
  const std::size_t replay_col = table.column_index("replay_clean");
  const std::size_t msg_col = table.column_index("message");
  CertifyReport report;
  for (const auto& row : table.rows) {
    if (row[verdict_col] == "summary") {
      report.configs_checked =
          common::parse_number<std::size_t>(row[idx_col],
                                            "certify report configs_checked");
      report.devices_checked =
          common::parse_number<std::size_t>(row[dev_col],
                                            "certify report devices_checked");
      continue;
    }
    Certificate cert;
    cert.config_index =
        common::parse_number<std::size_t>(row[idx_col],
                                          "certify report config_index");
    cert.config = row[cfg_col];
    cert.device = row[dev_col];
    cert.verdict = parse_verdict(row[verdict_col]);
    cert.rule = row[rule_col];
    cert.precondition = row[pre_col];
    cert.witness = parse_witness_cell(row[wit_col]);
    cert.replay_clean = row[replay_col] != "0";
    cert.message = row[msg_col];
    report.certificates.push_back(std::move(cert));
  }
  return report;
}

CertifyReport certify_space(std::span<const gemm::KernelConfig> configs,
                            std::span<const perf::DeviceSpec> devices,
                            const CertifyOptions& options) {
  std::size_t num_configs = configs.size();
  if (options.max_configs > 0) {
    num_configs = std::min(num_configs, options.max_configs);
  }
  CertifyReport report;
  report.configs_checked = num_configs;
  report.devices_checked = devices.size();

  for (std::size_t i = 0; i < num_configs; ++i) {
    const gemm::KernelConfig& config = configs[i];
    const VerifyResult access = verify_config_access(config);

    bool replay_clean = true;
    if (access.verdict == Verdict::unknown) {
      for (const auto& shape : access.replay_candidates) {
        const CheckResult replay = check_gemm(config, gemm_shape_of(shape));
        if (!replay.findings.empty()) replay_clean = false;
        if (shape.batch > 1) {
          const CheckResult batched = check_batched_gemm(
              config, gemm_shape_of(shape),
              static_cast<std::size_t>(shape.batch));
          if (!batched.findings.empty()) replay_clean = false;
        }
      }
    }

    const auto summary = summarize_tiled_gemm(gemm::tiled_access_pattern(config));
    for (const auto& device : devices) {
      Certificate cert;
      cert.config_index = i;
      cert.config = config.name();
      cert.device = device.name;
      cert.replay_clean = replay_clean;
      const auto capacity = check_capacity(summary, device);
      // Access findings are device-independent and take precedence in the
      // reported rule, so the per-config access verdict stays recoverable
      // from any device row; capacity only surfaces on access-safe configs.
      if (access.verdict != Verdict::safe) {
        cert.verdict = access.verdict;
        cert.rule = access.findings.front().rule;
        cert.message = access.findings.front().message;
        cert.witness = access.findings.front().witness;
      } else if (!capacity.empty()) {
        cert.verdict = Verdict::unsafe;
        cert.rule = capacity.front().rule;
        cert.message = capacity.front().message;
      } else {
        cert.verdict = Verdict::safe;
        cert.precondition = access.precondition;
      }
      report.certificates.push_back(std::move(cert));
    }
  }
  return report;
}

DifferentialResult differential_check(
    const CertifyReport& report, std::span<const gemm::KernelConfig> configs,
    std::size_t samples) {
  DifferentialResult result;
  const std::size_t num_configs = report.configs_checked;
  AKS_CHECK(num_configs <= configs.size(),
            "certify report covers more configs than provided");
  std::size_t stride = 1;
  if (samples > 0 && samples < num_configs) stride = num_configs / samples;

  const auto corpus = default_shape_corpus();
  for (std::size_t i = 0; i < num_configs; i += stride) {
    const gemm::KernelConfig& config = configs[i];
    ++result.configs_sampled;
    const auto mismatch = [&](const std::string& device,
                              const std::string& detail) {
      result.mismatches.push_back(
          {.config_index = i,
           .config = config.name(),
           .device = device,
           .detail = detail});
    };

    // Collect this config's certificates (one per device).
    std::vector<const Certificate*> certs;
    for (const auto& cert : report.certificates) {
      if (cert.config_index == i) certs.push_back(&cert);
    }
    if (certs.empty()) {
      mismatch({}, "no certificate in report");
      continue;
    }

    // The symbolic access verdict is device-independent; recover it from
    // the rows (capacity rules only surface when access was safe).
    const Certificate* access_cert = nullptr;
    for (const Certificate* cert : certs) {
      if (cert->verdict != Verdict::safe && !is_capacity_rule(cert->rule)) {
        access_cert = cert;
        break;
      }
    }

    if (access_cert == nullptr) {
      // Access-SAFE: dynamic replay over the corpus must be clean.
      for (const auto& shape : corpus) {
        const CheckResult replay = check_gemm(config, shape);
        ++result.replays;
        if (!replay.findings.empty()) {
          mismatch({}, "SAFE verdict but replay on " + shape.to_string() +
                           " reported " +
                           std::to_string(replay.findings.size()) +
                           " finding(s)");
          break;
        }
      }
      const CheckResult batched = check_batched_gemm(config, corpus[1], 3);
      ++result.replays;
      if (!batched.findings.empty()) {
        mismatch({}, "SAFE verdict but batched replay reported " +
                         std::to_string(batched.findings.size()) +
                         " finding(s)");
      }
    } else if (access_cert->verdict == Verdict::unsafe) {
      // Access-UNSAFE: the counterexample shape must actually fail replay.
      const CheckResult replay =
          check_gemm(config, gemm_shape_of(access_cert->witness));
      ++result.replays;
      if (replay.findings.empty()) {
        mismatch(access_cert->device,
                 "UNSAFE counterexample " + access_cert->witness.to_string() +
                     " replays clean");
      }
    } else {
      mismatch(access_cert->device, "UNKNOWN verdict unresolved");
    }
  }
  return result;
}

}  // namespace aks::check::symbolic
