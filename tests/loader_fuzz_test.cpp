// Seeded mutation fuzz over the text loaders whose input crosses a process
// boundary: a dataset CSV, a selector file, a device file, a certify report
// and a fault-plan string. Each trial applies 1-3 byte replacements,
// deletions or insertions to a valid input, and the loader must either
// accept the result or throw common::Error: never another exception type,
// a crash or a hang (a watchdog ends the process). These formats carry no
// checksum, so a changed digit is simply a different valid input; the
// store journal fuzz's "identical or Error" property does not apply.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "check/symbolic/certificate.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/pruning.hpp"
#include "core/serialize.hpp"
#include "dataset/benchmark_runner.hpp"
#include "dataset/extract.hpp"
#include "faults/fault_plan.hpp"
#include "gemm/config.hpp"
#include "perfmodel/device_spec.hpp"

namespace aks {
namespace {

constexpr int kTrialsPerLoader = 300;
/// Bytes a mutation writes: digits, number punctuation, whitespace and
/// letters (including hex digits and the exponent markers).
constexpr std::string_view kAlphabet = "0123456789+-.,xeEp \t\nabcdfnqzAXZ";

std::filesystem::path temp_path(const std::string& name) {
  return std::filesystem::temp_directory_path() / ("aks_loader_fuzz_" + name);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream(path, std::ios::binary) << text;
}

std::string mutate(std::string text, common::Rng& rng) {
  const std::size_t edits = 1 + rng.uniform_index(3);
  for (std::size_t e = 0; e < edits; ++e) {
    const char byte = kAlphabet[rng.uniform_index(kAlphabet.size())];
    const std::size_t at = rng.uniform_index(text.size() + 1);
    const std::size_t kind = rng.uniform_index(3);
    if (kind == 0 && at < text.size()) {
      text[at] = byte;
    } else if (kind == 1 && at < text.size()) {
      text.erase(at, 1);
    } else {
      text.insert(at, 1, byte);
    }
  }
  return text;
}

struct Loader {
  std::string name;
  std::string valid;                                 ///< the unmutated input
  std::function<void(const std::string&)> load;      ///< loads one input
};

/// A loader reading `path`: each input is written there first.
Loader file_loader(const std::string& name, const std::filesystem::path& path,
                   std::function<void(const std::filesystem::path&)> load) {
  return {name, read_file(path), [path, load](const std::string& text) {
            write_file(path, text);
            load(path);
          }};
}

std::vector<Loader> make_loaders() {
  std::vector<Loader> loaders;

  // A 10-row dataset slice keeps each load fast.
  auto shapes = data::extract_all_shapes();
  shapes.resize(10);
  data::RunnerOptions options;
  options.iterations = 2;
  const auto dataset = data::run_model_benchmarks(
      shapes, perf::DeviceSpec::amd_r9_nano(), options);
  const auto dataset_path = temp_path("dataset.csv");
  dataset.save(dataset_path);
  loaders.push_back(file_loader(
      "dataset", dataset_path,
      [](const auto& path) { (void)data::PerfDataset::load(path); }));

  select::DecisionTreeSelector selector;
  selector.fit(dataset, select::TopNPruner().prune(dataset, 4));
  const auto selector_path = temp_path("selector.txt");
  select::save_selector(selector, selector_path);
  loaders.push_back(file_loader(
      "selector", selector_path,
      [](const auto& path) { (void)select::load_selector(path); }));

  const auto device_path = temp_path("device.txt");
  perf::DeviceSpec::embedded_accelerator().save(device_path);
  loaders.push_back(file_loader(
      "device", device_path,
      [](const auto& path) { (void)perf::DeviceSpec::from_file(path); }));

  check::symbolic::CertifyOptions certify;
  certify.max_configs = 2;
  const auto certify_path = temp_path("certify.csv");
  check::symbolic::certify_space(gemm::enumerate_configs(),
                                 perf::DeviceSpec::shipped(), certify)
      .save_csv(certify_path);
  loaders.push_back(file_loader("certify report", certify_path,
                                [](const auto& path) {
                                  (void)check::symbolic::CertifyReport::
                                      load_csv(path);
                                }));

  loaders.push_back(
      {"fault plan",
       "seed=7,launch=0.1,hang=0.05,outlier=0.2,nan=0.05,row=0.05,hang-ms=2",
       [](const std::string& spec) { (void)faults::FaultPlan::parse(spec); }});
  return loaders;
}

TEST(LoaderFuzz, MutatedInputsLoadOrThrowError) {
  auto run = std::async(std::launch::async, [] {
    for (const Loader& loader : make_loaders()) {
      ASSERT_NO_THROW(loader.load(loader.valid)) << loader.name;
      common::Rng rng(0xf22);
      int rejected = 0;
      for (int trial = 0; trial < kTrialsPerLoader; ++trial) {
        const std::string input = mutate(loader.valid, rng);
        try {
          loader.load(input);
        } catch (const common::Error&) {
          ++rejected;
        } catch (const std::exception& e) {
          ADD_FAILURE() << loader.name << " trial " << trial << ": "
                        << typeid(e).name() << " escaped: " << e.what();
        }
      }
      // Both outcomes occur, or the mutations are not reaching the parser.
      EXPECT_GT(rejected, 0) << loader.name;
      EXPECT_LT(rejected, kTrialsPerLoader) << loader.name;
    }
  });
  if (run.wait_for(std::chrono::seconds(300)) == std::future_status::timeout) {
    std::cerr << "watchdog: a loader hung on a mutated input\n";
    std::_Exit(3);
  }
  run.get();
  for (const char* name :
       {"dataset.csv", "selector.txt", "device.txt", "certify.csv"}) {
    std::filesystem::remove(temp_path(name));
  }
}

}  // namespace
}  // namespace aks
