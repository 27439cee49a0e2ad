#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/pruning.hpp"
#include "core/serialize.hpp"
#include "dataset/benchmark_runner.hpp"

namespace aks::select {
namespace {

std::filesystem::path temp_path(const std::string& name) {
  return std::filesystem::temp_directory_path() / ("aks_serialize_" + name);
}

class SerializeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::ExtractionOptions extraction;
    extraction.vgg_batches = {1};
    extraction.resnet_batches = {1};
    extraction.mobilenet_batches = {1};
    const auto dataset = data::build_paper_dataset({}, extraction);
    split_ = new data::DatasetSplit(dataset.split(0.8, 5));
    DecisionTreePruner pruner;
    selector_ = new DecisionTreeSelector();
    selector_->fit(split_->train, pruner.prune(split_->train, 8));
  }
  static void TearDownTestSuite() {
    delete split_;
    delete selector_;
    split_ = nullptr;
    selector_ = nullptr;
  }
  static const data::DatasetSplit& split() { return *split_; }
  static const DecisionTreeSelector& selector() { return *selector_; }

 private:
  static data::DatasetSplit* split_;
  static DecisionTreeSelector* selector_;
};

data::DatasetSplit* SerializeTest::split_ = nullptr;
DecisionTreeSelector* SerializeTest::selector_ = nullptr;

TEST_F(SerializeTest, RoundTripPreservesEveryDecision) {
  const auto path = temp_path("roundtrip.txt");
  save_selector(selector(), path);
  const auto loaded = load_selector(path);

  EXPECT_EQ(loaded.allowed(), selector().allowed());
  // Decisions must be identical on the dataset and on random probes
  // (thresholds are stored as hex doubles, so exactly).
  for (std::size_t r = 0; r < split().test.num_shapes(); ++r) {
    const auto row = split().test.features().row(r);
    EXPECT_EQ(loaded.select(row), selector().select(row));
  }
  common::Rng rng(5);
  for (int probe = 0; probe < 500; ++probe) {
    const double features[3] = {rng.uniform(1, 300000), rng.uniform(1, 30000),
                                rng.uniform(1, 5000)};
    EXPECT_EQ(loaded.select(features), selector().select(features));
  }
  std::filesystem::remove(path);
}

TEST_F(SerializeTest, LoadedSelectorSupportsCodegen) {
  const auto path = temp_path("codegen.txt");
  save_selector(selector(), path);
  const auto loaded = load_selector(path);
  // The loaded selector can feed the code generator (deployment path).
  EXPECT_NO_THROW({
    const auto config = loaded.select_config({128, 128, 128});
    (void)config;
  });
  std::filesystem::remove(path);
}

TEST_F(SerializeTest, UnfittedSelectorRejected) {
  DecisionTreeSelector unfitted;
  EXPECT_THROW(save_selector(unfitted, temp_path("unfitted.txt")),
               common::Error);
}

TEST_F(SerializeTest, NonRawSelectorsRejected) {
  DecisionTreeSelector scaled(ml::TreeOptions{}, /*scale_features=*/true);
  scaled.fit(split().train, selector().allowed());
  EXPECT_THROW(save_selector(scaled, temp_path("scaled.txt")), common::Error);
}

TEST_F(SerializeTest, MissingFileThrows) {
  EXPECT_THROW((void)load_selector("/nonexistent/selector.txt"),
               common::Error);
}

TEST_F(SerializeTest, BadMagicRejected) {
  const auto path = temp_path("bad_magic.txt");
  std::ofstream(path) << "not a selector\n";
  EXPECT_THROW((void)load_selector(path), common::Error);
  std::filesystem::remove(path);
}

TEST_F(SerializeTest, TruncatedFileRejected) {
  const auto path = temp_path("truncated.txt");
  save_selector(selector(), path);
  // Chop the file in half.
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path) << content.substr(0, content.size() / 2);
  EXPECT_THROW((void)load_selector(path), common::Error);
  std::filesystem::remove(path);
}

TEST_F(SerializeTest, CorruptChildIndexRejected) {
  const auto path = temp_path("corrupt.txt");
  save_selector(selector(), path);
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  // Point a child index far out of range: the first split node's left
  // child. Line 5 is the first node line.
  std::istringstream stream(content);
  std::ostringstream rewritten;
  std::string line;
  int line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    if (line_no == 5 && line.find(' ') != std::string::npos) {
      // node lines: feature threshold left right ...
      std::istringstream fields(line);
      std::string feature, threshold, left, rest;
      fields >> feature >> threshold >> left;
      std::getline(fields, rest);  // " right n_samples values..."
      if (feature != "-1") {
        line = feature + " " + threshold + " 99999" + rest;
      }
    }
    rewritten << line << "\n";
  }
  std::ofstream(path) << rewritten.str();
  EXPECT_THROW((void)load_selector(path), common::Error);
  std::filesystem::remove(path);
}

// Crafted files that used to hang or abort the loader's caller: a split
// node naming itself as its child (descent looped forever), and counts so
// large that allocating for them threw std::bad_alloc.
TEST(SelectorFileHardening, CraftedFilesThrowError) {
  const std::string header =
      "aks-tree-selector v1\nfeatures 3\nallowed 2 5 9\n";
  const std::pair<std::string, std::string> files[] = {
      {"self_loop.txt", header +
                            "nodes 3\n"
                            "0 0x1p+7 1 2 10 2 0x1p+2 0x1.8p+2\n"
                            "0 0x1p+6 1 2 6 2 0x1p+1 0x1p+2\n"
                            "-1 0x0p+0 -1 -1 4 2 0x1p+1 0x1p+1\n"},
      {"huge_node_count.txt", header +
                                  "nodes 1000000000000000\n"
                                  "-1 0x0p+0 -1 -1 4 2 0x1p+1 0x1p+1\n"},
      {"huge_value_count.txt", header +
                                   "nodes 1\n"
                                   "-1 0x0p+0 -1 -1 4 1000000000000000 "
                                   "0x1p+1 0x1p+1\n"},
      {"huge_allowed_count.txt",
       "aks-tree-selector v1\nfeatures 3\nallowed 1000000000000000 5\n"},
  };
  for (const auto& [name, content] : files) {
    const auto path = temp_path(name);
    std::ofstream(path) << content;
    EXPECT_THROW((void)load_selector(path), common::Error) << name;
    std::filesystem::remove(path);
  }
}

}  // namespace
}  // namespace aks::select
