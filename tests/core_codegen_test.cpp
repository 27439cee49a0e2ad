#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/codegen.hpp"
#include "core/pruning.hpp"
#include "dataset/benchmark_runner.hpp"

namespace aks::select {
namespace {

class CodegenTest : public ::testing::Test {
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
    selector_->fit(split_->train, pruner.prune(split_->train, 6));
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

data::DatasetSplit* CodegenTest::split_ = nullptr;
DecisionTreeSelector* CodegenTest::selector_ = nullptr;

TEST_F(CodegenTest, EmitsCompilableLookingCode) {
  const std::string code = generate_selector_code(selector());
  EXPECT_NE(code.find("struct KernelChoice"), std::string::npos);
  EXPECT_NE(code.find("inline KernelChoice select_gemm_kernel"), std::string::npos);
  EXPECT_NE(code.find("namespace aks_generated"), std::string::npos);
  EXPECT_NE(code.find("return {"), std::string::npos);
  // Balanced braces.
  long depth = 0;
  for (const char ch : code) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(CodegenTest, GeneratedLogicMatchesSelectorEverywhere) {
  // The emitted nested ifs and the live selector must agree on every test
  // shape and on random probes.
  for (std::size_t r = 0; r < split().test.num_shapes(); ++r) {
    const auto row = split().test.features().row(r);
    const auto expected =
        gemm::enumerate_configs()[selector().select(row)];
    const auto emitted =
        evaluate_generated_logic(selector(), row[0], row[1], row[2]);
    EXPECT_EQ(emitted, expected) << "row " << r;
  }
  common::Rng rng(3);
  for (int probe = 0; probe < 200; ++probe) {
    const double m = rng.uniform(1, 300000);
    const double k = rng.uniform(1, 30000);
    const double n = rng.uniform(1, 5000);
    const double features[3] = {m, k, n};
    const auto expected = gemm::enumerate_configs()[selector().select(features)];
    EXPECT_EQ(evaluate_generated_logic(selector(), m, k, n), expected);
  }
}

TEST_F(CodegenTest, EveryLeafEmitsAnAllowedConfig) {
  const std::string code = generate_selector_code(selector());
  // Each allowed config name may appear; no disallowed names may.
  for (const auto& config : gemm::enumerate_configs()) {
    const bool is_allowed =
        std::find(selector().allowed().begin(), selector().allowed().end(),
                  gemm::config_index(config)) != selector().allowed().end();
    if (!is_allowed) {
      EXPECT_EQ(code.find("// " + config.name()), std::string::npos);
    }
  }
}

TEST_F(CodegenTest, UnfittedSelectorThrows) {
  DecisionTreeSelector unfitted;
  EXPECT_THROW((void)generate_selector_code(unfitted), common::Error);
  EXPECT_THROW((void)evaluate_generated_logic(unfitted, 1, 1, 1),
               common::Error);
}

TEST_F(CodegenTest, ScaledSelectorRejected) {
  DecisionTreeSelector scaled(ml::TreeOptions{}, /*scale_features=*/true);
  scaled.fit(split().train, selector().allowed());
  EXPECT_THROW((void)generate_selector_code(scaled), common::Error);
}

}  // namespace
}  // namespace aks::select
