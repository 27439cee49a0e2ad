#include "faults/fault_plan.hpp"

#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace aks::faults {

const char* to_string(Site site) {
  switch (site) {
    case Site::kKernelLaunch: return "kernel-launch";
    case Site::kHostTiming: return "host-timing";
    case Site::kDatasetRow: return "dataset-row";
    case Site::kWarmUpTrial: return "warmup-trial";
    case Site::kStoreWrite: return "store-write";
  }
  return "unknown";
}

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kLaunchFailure: return "launch-failure";
    case FaultKind::kHang: return "hang";
    case FaultKind::kTimingOutlier: return "timing-outlier";
    case FaultKind::kTimingNan: return "timing-nan";
    case FaultKind::kCorruptRow: return "corrupt-row";
    case FaultKind::kWriteFailure: return "write-failure";
    case FaultKind::kTornWrite: return "torn-write";
  }
  return "unknown";
}

bool FaultPlan::any_active() const {
  for (const auto& rates : sites) {
    if (rates.total() > 0.0) return true;
  }
  return false;
}

FaultPlan FaultPlan::none() { return FaultPlan{}; }

FaultPlan FaultPlan::timing_noise_heavy(double rate, std::uint64_t seed) {
  AKS_CHECK(rate >= 0.0 && rate <= 1.0, "fault rate must be in [0,1]");
  FaultPlan plan;
  plan.seed = seed;
  plan.at(Site::kHostTiming).timing_outlier = 0.8 * rate;
  plan.at(Site::kHostTiming).timing_nan = 0.2 * rate;
  plan.at(Site::kWarmUpTrial).timing_outlier = 0.8 * rate;
  plan.at(Site::kWarmUpTrial).timing_nan = 0.2 * rate;
  plan.at(Site::kDatasetRow).corrupt_row = 0.1 * rate;
  return plan;
}

FaultPlan FaultPlan::launch_failure_heavy(double rate, std::uint64_t seed) {
  AKS_CHECK(rate >= 0.0 && rate <= 1.0, "fault rate must be in [0,1]");
  FaultPlan plan;
  plan.seed = seed;
  plan.at(Site::kKernelLaunch).launch_failure = 0.8 * rate;
  plan.at(Site::kKernelLaunch).hang = 0.2 * rate;
  plan.at(Site::kWarmUpTrial).launch_failure = 0.8 * rate;
  plan.at(Site::kWarmUpTrial).hang = 0.2 * rate;
  return plan;
}

FaultPlan FaultPlan::mixed(double rate, std::uint64_t seed) {
  AKS_CHECK(rate >= 0.0 && rate <= 1.0, "fault rate must be in [0,1]");
  FaultPlan plan;
  plan.seed = seed;
  plan.at(Site::kKernelLaunch).launch_failure = 0.4 * rate;
  plan.at(Site::kKernelLaunch).hang = 0.1 * rate;
  plan.at(Site::kHostTiming).timing_outlier = 0.35 * rate;
  plan.at(Site::kHostTiming).timing_nan = 0.15 * rate;
  plan.at(Site::kWarmUpTrial).launch_failure = 0.5 * rate;
  plan.at(Site::kWarmUpTrial).timing_outlier = 0.35 * rate;
  plan.at(Site::kWarmUpTrial).timing_nan = 0.15 * rate;
  plan.at(Site::kDatasetRow).corrupt_row = 0.15 * rate;
  return plan;
}

namespace {

double parse_rate(const std::string& value, const std::string& key) {
  const double rate =
      common::parse_number<double>(value, "fault plan '" + key + "'");
  AKS_CHECK(rate >= 0.0, "fault plan: '" << key << "' must be >= 0");
  return rate;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  const std::string trimmed{common::trim(spec)};
  AKS_CHECK(!trimmed.empty(), "empty fault plan spec");

  // Canned name, optionally with an "@rate" suffix.
  const auto make_canned =
      [](const std::string& name, double rate) -> FaultPlan {
    if (name == "none") return FaultPlan::none();
    if (name == "timing-noise-heavy") return timing_noise_heavy(rate);
    if (name == "launch-failure-heavy") return launch_failure_heavy(rate);
    if (name == "mixed") return mixed(rate);
    AKS_FAIL("unknown fault plan '"
             << name
             << "' (none | timing-noise-heavy | launch-failure-heavy | "
                "mixed | key=value,...)");
  };
  if (trimmed.find('=') == std::string::npos) {
    const auto at = trimmed.find('@');
    if (at == std::string::npos) return make_canned(trimmed, 0.3);
    const double rate = parse_rate(trimmed.substr(at + 1), "rate");
    AKS_CHECK(rate <= 1.0, "fault plan rate must be <= 1");
    return make_canned(trimmed.substr(0, at), rate);
  }

  FaultPlan plan;
  for (const std::string& part : common::split(trimmed, ',')) {
    const std::string item{common::trim(part)};
    if (item.empty()) continue;
    const auto eq = item.find('=');
    AKS_CHECK(eq != std::string::npos, "fault plan: expected key=value, got '"
                                           << item << "'");
    const std::string key{common::trim(item.substr(0, eq))};
    const std::string value{common::trim(item.substr(eq + 1))};
    if (key == "seed") {
      plan.seed =
          common::parse_number<std::uint64_t>(value, "fault plan 'seed'");
    } else if (key == "launch") {
      plan.at(Site::kKernelLaunch).launch_failure = parse_rate(value, key);
    } else if (key == "hang") {
      plan.at(Site::kKernelLaunch).hang = parse_rate(value, key);
    } else if (key == "outlier") {
      const double rate = parse_rate(value, key);
      plan.at(Site::kHostTiming).timing_outlier = rate;
      plan.at(Site::kWarmUpTrial).timing_outlier = rate;
    } else if (key == "nan") {
      const double rate = parse_rate(value, key);
      plan.at(Site::kHostTiming).timing_nan = rate;
      plan.at(Site::kWarmUpTrial).timing_nan = rate;
    } else if (key == "row") {
      plan.at(Site::kDatasetRow).corrupt_row = parse_rate(value, key);
    } else if (key == "warmup") {
      plan.at(Site::kWarmUpTrial).launch_failure = parse_rate(value, key);
    } else if (key == "store-write") {
      plan.at(Site::kStoreWrite).write_failure = parse_rate(value, key);
    } else if (key == "store-torn") {
      plan.at(Site::kStoreWrite).torn_write = parse_rate(value, key);
    } else if (key == "outlier-min") {
      plan.outlier_min_factor = parse_rate(value, key);
    } else if (key == "outlier-max") {
      plan.outlier_max_factor = parse_rate(value, key);
    } else if (key == "hang-ms") {
      plan.hang_seconds = parse_rate(value, key) * 1e-3;
    } else {
      AKS_FAIL("fault plan: unknown key '" << key << "'");
    }
  }
  AKS_CHECK(plan.outlier_min_factor > 1.0 &&
                plan.outlier_max_factor >= plan.outlier_min_factor,
            "fault plan: need 1 < outlier-min <= outlier-max");
  for (const auto& rates : plan.sites) {
    AKS_CHECK(rates.total() <= 1.0,
              "fault plan: per-site rates must sum to <= 1");
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::ostringstream os;
  os << "seed=" << seed;
  const auto& launch = at(Site::kKernelLaunch);
  if (launch.launch_failure > 0.0) os << ",launch=" << launch.launch_failure;
  if (launch.hang > 0.0) os << ",hang=" << launch.hang;
  const auto& timing = at(Site::kHostTiming);
  if (timing.timing_outlier > 0.0) os << ",outlier=" << timing.timing_outlier;
  if (timing.timing_nan > 0.0) os << ",nan=" << timing.timing_nan;
  const auto& row = at(Site::kDatasetRow);
  if (row.corrupt_row > 0.0) os << ",row=" << row.corrupt_row;
  const auto& warmup = at(Site::kWarmUpTrial);
  if (warmup.launch_failure > 0.0) os << ",warmup=" << warmup.launch_failure;
  const auto& store = at(Site::kStoreWrite);
  if (store.write_failure > 0.0) os << ",store-write=" << store.write_failure;
  if (store.torn_write > 0.0) os << ",store-torn=" << store.torn_write;
  return os.str();
}

}  // namespace aks::faults
