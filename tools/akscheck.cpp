// akscheck — race/bounds/config analysis driver for the kernel zoo.
//
// Runs the two akscheck passes over the registry configuration space:
//
//   checked execution  (--registry)  replay every compiled kernel over
//                                    shadow-recording accessors on a shape
//                                    corpus; races, out-of-bounds accesses,
//                                    unguarded tails, numeric divergence;
//   config lint        (--lint)      validate every configuration against
//                                    device execution limits;
//   conv lowerings     (--conv)      replay the im2col/Winograd lowerings
//                                    through their production code path;
//   certificates       (certify)     symbolic access verification of every
//                                    configuration for ALL shapes: bounds,
//                                    races, tails and device capacity, with
//                                    SAFE/UNSAFE/UNKNOWN certificates and a
//                                    --differential cross-check against the
//                                    dynamic replay;
//   lock order         (locks)       drive the serving stack (thread pool,
//                                    tuner, service, store, trace, faults)
//                                    from many threads and validate the
//                                    observed lock-order graph: no cycles,
//                                    no lock held across a condition wait.
//
// With no pass flags, --registry and --lint both run. Exit status: 0 clean,
// 1 findings, 2 usage error.
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/checked_conv.hpp"
#include "check/checked_gemm.hpp"
#include "check/config_lint.hpp"
#include "check/lock_drill.hpp"
#include "check/lockdep.hpp"
#include "check/report_json.hpp"
#include "check/symbolic/certificate.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "gemm/config.hpp"
#include "perfmodel/device_spec.hpp"

namespace {

using namespace aks;

struct Args {
  bool registry = false;
  bool lint = false;
  bool conv = false;
  bool certify = false;
  bool locks = false;
  bool differential = false;
  std::size_t threads = 8;
  std::size_t requests = 64;
  std::string devices = "all";
  std::string report;
  std::string format = "csv";
  std::vector<gemm::GemmShape> shapes;
  std::size_t max_configs = 0;
  std::size_t conv_stride = 80;
  std::size_t samples = 0;
  bool verbose = false;
};

gemm::GemmShape parse_shape(const std::string& text) {
  const auto dims = common::split(text, 'x');
  AKS_CHECK(dims.size() == 3, "shape must be MxKxN, got '" << text << "'");
  const gemm::GemmShape shape{
      .m = common::parse_number<std::size_t>(dims[0], "shape dimension M"),
      .k = common::parse_number<std::size_t>(dims[1], "shape dimension K"),
      .n = common::parse_number<std::size_t>(dims[2], "shape dimension N")};
  AKS_CHECK(shape.m > 0 && shape.k > 0 && shape.n > 0,
            "shape dimensions must be positive: '" << text << "'");
  return shape;
}

/// Every flag akscheck reads; anything else is a usage error.
constexpr common::CliArgs::Flag kFlags[] = {
    {"registry", false},     {"lint", false},         {"conv", false},
    {"certify", false},      {"locks", false},        {"differential", false},
    {"verbose", false},      {"threads", true},       {"requests", true},
    {"devices", true},       {"report", true},        {"format", true},
    {"samples", true},       {"max-configs", true},   {"conv-stride", true},
    {"shapes", true},
};

Args parse_args(int argc, char** argv) {
  const common::CliArgs cli(argc, argv, kFlags);
  constexpr auto kMax = std::numeric_limits<std::size_t>::max();
  Args args;
  args.registry = cli.has("registry");
  args.lint = cli.has("lint");
  args.conv = cli.has("conv");
  args.certify = cli.has("certify");
  args.locks = cli.has("locks");
  // `certify` and `locks` also work as bare subcommand words.
  for (const auto& word : cli.positional()) {
    if (word == "certify") {
      args.certify = true;
    } else if (word == "locks") {
      args.locks = true;
    } else {
      AKS_FAIL("unknown option '" << word << "'");
    }
  }
  args.differential = cli.has("differential");
  args.verbose = cli.has("verbose");
  args.threads = cli.number<std::size_t>("threads", args.threads, 1, kMax);
  args.requests = cli.number<std::size_t>("requests", args.requests, 0, kMax);
  args.devices = cli.get("devices", args.devices);
  args.report = cli.get("report");
  args.format = cli.get("format", args.format);
  AKS_CHECK(args.format == "csv" || args.format == "json" ||
                args.format == "dot",
            "--format must be csv, json or dot, got '" << args.format << "'");
  args.samples = cli.number<std::size_t>("samples", args.samples, 0, kMax);
  args.max_configs =
      cli.number<std::size_t>("max-configs", args.max_configs, 0, kMax);
  args.conv_stride =
      cli.number<std::size_t>("conv-stride", args.conv_stride, 0, kMax);
  for (const auto& shape : common::split(cli.get("shapes"), ',')) {
    if (!shape.empty()) args.shapes.push_back(parse_shape(shape));
  }
  AKS_CHECK(!cli.has("shapes") || !args.shapes.empty(),
            "--shapes needs at least one MxKxN");
  if (!args.registry && !args.lint && !args.conv && !args.certify &&
      !args.locks) {
    args.registry = true;
    args.lint = true;
  }
  AKS_CHECK(!args.differential || args.certify,
            "--differential requires the certify pass");
  AKS_CHECK(args.format != "dot" || args.locks,
            "--format dot is only valid for the locks pass");
  AKS_CHECK(!(args.locks && args.format == "csv" && !args.report.empty()) ||
                args.lint || args.certify,
            "locks reports are dot or json; pass --format dot|json");
  return args;
}

std::vector<perf::DeviceSpec> devices_from(const std::string& spec) {
  std::vector<perf::DeviceSpec> devices;
  const auto add = [&devices](const std::string& name) {
    if (name == "r9nano") {
      devices.push_back(perf::DeviceSpec::amd_r9_nano());
    } else if (name == "embedded") {
      devices.push_back(perf::DeviceSpec::embedded_accelerator());
    } else if (name == "igpu") {
      devices.push_back(perf::DeviceSpec::integrated_gpu());
    } else {
      AKS_FAIL("unknown device '" << name
                                  << "' (all | r9nano | embedded | igpu)");
    }
  };
  if (spec == "all") {
    add("r9nano");
    add("embedded");
    add("igpu");
    return devices;
  }
  std::size_t start = 0;
  while (start <= spec.size()) {
    const auto comma = spec.find(',', start);
    const auto end = comma == std::string::npos ? spec.size() : comma;
    if (end > start) add(spec.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  AKS_CHECK(!devices.empty(), "--devices selected no device");
  return devices;
}

void print_findings(const std::vector<check::Diagnostic>& findings,
                    std::size_t limit) {
  std::size_t shown = 0;
  for (const auto& finding : findings) {
    if (shown++ == limit) {
      std::cout << "  ... " << findings.size() - limit << " more\n";
      break;
    }
    std::cout << "  " << finding.format() << "\n";
  }
}

int run(const Args& args) {
  std::size_t total_findings = 0;

  if (args.lint) {
    const auto devices = devices_from(args.devices);
    const auto& configs = gemm::enumerate_configs();
    const auto report = check::lint_configs(configs, devices);
    std::cout << "[lint] " << report.configs_checked << " configs x "
              << report.devices_checked << " devices: " << report.findings.size()
              << " finding(s)\n";
    if (!report.clean()) {
      std::vector<check::Diagnostic> diags;
      for (const auto& finding : report.findings) {
        diags.push_back(finding.to_diagnostic());
      }
      print_findings(diags, args.verbose ? diags.size() : 10);
    }
    if (!args.report.empty()) {
      if (args.format == "json") {
        check::save_json(args.report, check::to_json(report));
      } else {
        report.save_csv(args.report);
      }
      std::cout << "[lint] report written to " << args.report << "\n";
    }
    total_findings += report.findings.size();
  }

  if (args.registry) {
    check::RegistryCheckOptions options;
    options.shapes = args.shapes;
    options.max_configs = args.max_configs;
    const auto summary = check::check_registry(options);
    std::cout << "[registry] " << summary.configs_checked << " configs, "
              << summary.launches << " checked launches, max |err| "
              << summary.max_abs_error << ": " << summary.findings.size()
              << " finding(s)";
    if (summary.dropped_findings > 0) {
      std::cout << " (+" << summary.dropped_findings << " dropped)";
    }
    std::cout << "\n";
    if (!summary.clean()) {
      print_findings(summary.findings,
                     args.verbose ? summary.findings.size() : 10);
    }
    total_findings += summary.findings.size() + summary.dropped_findings;
  }

  if (args.certify) {
    namespace sym = check::symbolic;
    const auto devices = devices_from(args.devices);
    const auto& configs = gemm::enumerate_configs();
    sym::CertifyOptions options;
    options.max_configs = args.max_configs;
    const auto report = sym::certify_space(configs, devices, options);
    std::cout << "[certify] " << report.configs_checked << " configs x "
              << report.devices_checked << " devices: "
              << report.count(sym::Verdict::safe) << " SAFE, "
              << report.count(sym::Verdict::unsafe) << " UNSAFE, "
              << report.count(sym::Verdict::unknown) << " UNKNOWN\n";
    std::size_t shown = 0;
    const std::size_t limit = args.verbose ? report.certificates.size() : 10;
    for (const auto& cert : report.certificates) {
      if (cert.verdict == sym::Verdict::safe) continue;
      if (shown++ == limit) break;
      std::cout << "  " << sym::to_string(cert.verdict) << " " << cert.config
                << " on " << cert.device << " [" << cert.rule << "] "
                << cert.message << "\n";
    }
    if (!args.report.empty()) {
      if (args.format == "json") {
        check::save_json(args.report, check::to_json(report));
      } else {
        report.save_csv(args.report);
      }
      std::cout << "[certify] report written to " << args.report << "\n";
    }
    total_findings += report.certificates.size() -
                      report.count(sym::Verdict::safe);

    if (args.differential) {
      const auto diff =
          sym::differential_check(report, configs, devices, args.samples);
      std::cout << "[certify] differential: " << diff.configs_sampled
                << " configs sampled, " << diff.replays << " replays, "
                << diff.mismatches.size() << " mismatch(es)\n";
      for (const auto& mismatch : diff.mismatches) {
        std::cout << "  MISMATCH " << mismatch.config << " on "
                  << mismatch.device << ": " << mismatch.detail << "\n";
      }
      total_findings += diff.mismatches.size();
    }
  }

  if (args.locks) {
    check::LockDrillOptions options;
    options.threads = args.threads;
    options.requests_per_thread = args.requests;
    const auto report = check::run_lock_drill(options);
    std::cout << "[locks] " << report.classes.size() << " lock classes, "
              << report.edges.size() << " order edges: "
              << report.cycles.size() << " cycle(s), "
              << report.held_while_blocking.size()
              << " held-while-blocking violation(s)\n";
    for (const auto& cycle : report.cycles) {
      std::cout << "  CYCLE ";
      for (const auto& name : cycle.names) std::cout << name << " -> ";
      std::cout << cycle.names.front() << "\n";
    }
    for (const auto& violation : report.held_while_blocking) {
      std::cout << "  HELD-WHILE-BLOCKING wait on " << violation.blocked_on
                << " holding {";
      for (std::size_t i = 0; i < violation.held.size(); ++i) {
        std::cout << (i > 0 ? ", " : "") << violation.held[i];
      }
      std::cout << "} x" << violation.count << "\n";
    }
    if (args.verbose) {
      for (const auto& edge : report.edges) {
        std::cout << "  " << edge.from_name << " -> " << edge.to_name << " x"
                  << edge.count << "\n";
      }
    }
    if (!args.report.empty()) {
      std::ofstream out(args.report);
      AKS_CHECK(out.is_open(), "cannot open " << args.report);
      if (args.format == "dot") {
        check::lockdep::write_dot(report, out);
      } else {
        check::lockdep::write_json(report, out);
      }
      std::cout << "[locks] report written to " << args.report << "\n";
    }
    total_findings +=
        report.cycles.size() + report.held_while_blocking.size();
  }

  if (args.conv) {
    const auto summary = check::check_conv_lowerings(args.conv_stride);
    std::cout << "[conv] " << summary.configs_checked << " configs, "
              << summary.launches << " checked lowerings, max |err| "
              << summary.max_abs_error << ": " << summary.findings.size()
              << " finding(s)\n";
    if (!summary.clean()) {
      print_findings(summary.findings,
                     args.verbose ? summary.findings.size() : 10);
    }
    total_findings += summary.findings.size() + summary.dropped_findings;
  }

  if (total_findings == 0) {
    std::cout << "akscheck: clean\n";
    return 0;
  }
  std::cout << "akscheck: " << total_findings << " finding(s)\n";
  return 1;
}

void print_usage() {
  std::cerr <<
      "usage: akscheck [certify|locks] [passes] [options]\n"
      "passes (default: --registry --lint):\n"
      "  --registry          checked replay of the GEMM kernel zoo\n"
      "  --lint              config validity vs device execution limits\n"
      "  --conv              checked replay of the conv lowerings\n"
      "  certify             symbolic SAFE/UNSAFE/UNKNOWN certificates for\n"
      "                      every configuration, over all shapes\n"
      "  locks               drive the serving stack concurrently and\n"
      "                      validate the observed lock-order graph\n"
      "options:\n"
      "  --devices all|r9nano,embedded,igpu   lint/certify targets\n"
      "  --shapes MxKxN,...  registry shape corpus (default built-in)\n"
      "  --max-configs N     registry/certify: first N configs (0 = all)\n"
      "  --conv-stride N     conv: every Nth config (default 80)\n"
      "  --differential      certify: cross-check certificates against\n"
      "                      sampled dynamic replays\n"
      "  --samples N         differential: configs to sample (0 = all)\n"
      "  --threads N         locks: worker threads (default 8)\n"
      "  --requests N        locks: requests per thread (default 64)\n"
      "  --report <path>     write the lint/certify/locks report\n"
      "  --format csv|json|dot  report format (default csv; dot is\n"
      "                      locks-only)\n"
      "  --verbose           print every finding / every order edge\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const aks::common::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    print_usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
