// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --run-dir <dir> --trace-dir <dir> --revision <rev>
//
// Prints the workload's input properties, checks and metrics, and as the
// last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones.
// perfbench/run.py builds this binary from the checkout and runs it.
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "workloads.hpp"

namespace perfbench {
namespace {

const std::map<std::string, std::function<void(const Options&, Report&)>>&
workloads() {
  static const std::map<std::string,
                        std::function<void(const Options&, Report&)>>
      table = {
          {"network_forward", run_network_forward},
          {"serve_hot", run_serve_hot},
          {"serve_churn", run_serve_churn},
          {"offline_ship", run_offline_ship},
      };
  return table;
}

Options parse(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc || flags.count(key) > 0) {
      throw std::invalid_argument("bad argument '" + key + "'");
    }
    flags[key] = argv[i + 1];
  }
  const auto take = [&](const std::string& key) {
    const auto it = flags.find(key);
    if (it == flags.end()) throw std::invalid_argument("missing " + key);
    std::string value = it->second;
    flags.erase(it);
    return value;
  };
  Options options;
  options.workload = take("--workload");
  if (workloads().count(options.workload) == 0) {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  options.seed = std::stoull(take("--seed"));
  options.seconds = std::stod(take("--seconds"));
  if (!(options.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  const std::string trace = take("--trace");
  if (trace != "0" && trace != "1") {
    throw std::invalid_argument("--trace takes 0 or 1");
  }
  options.trace = trace == "1";
  options.run_dir = take("--run-dir");
  options.trace_dir = take("--trace-dir");
  options.revision = take("--revision");
  if (!flags.empty()) {
    throw std::invalid_argument("unknown flag '" + flags.begin()->first + "'");
  }
  options.self = std::filesystem::absolute(argv[0]).string();
  options.nproc = std::max(1u, std::thread::hardware_concurrency());
  return options;
}

void print_run(const Options& options) {
  std::cout << "run: workload=" << options.workload
            << " seed=" << options.seed << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0)
            << " nproc=" << options.nproc
            << " client_threads=" << client_threads(options)
            << " revision=" << options.revision << "\n";
}

}  // namespace

unsigned client_threads(const Options& options) {
  return options.workload.rfind("serve_", 0) == 0 ? options.nproc : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  // Process-start probe of offline_ship: return before any work.
  if (argc == 2 && std::string_view(argv[1]) == "--startup-probe") return 0;
  using namespace perfbench;
  Options options;
  try {
    options = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  try {
    std::filesystem::create_directories(options.run_dir);
    print_run(options);
    Report report;
    workloads().at(options.workload)(options, report);
    report.print_table();
    print_run(options);
    report.print_json();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << ": " << e.what() << "\n";
    return 1;
  }
  return 0;
}
