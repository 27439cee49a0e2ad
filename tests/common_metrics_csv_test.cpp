// MetricsRegistry CSV export: the fault-matrix tooling and `aks_tune serve
// --metrics-out` parse this format back, so it must round-trip through the
// repo's own CSV reader — including the degenerate empty-histogram rows.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"

namespace aks::common {
namespace {

class MetricsCsvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (!path_.empty()) std::filesystem::remove(path_);
  }

  std::filesystem::path write_registry(const MetricsRegistry& registry) {
    // One file per test: ctest -j runs this suite's tests concurrently.
    path_ = std::filesystem::temp_directory_path() /
            ("aks_metrics_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()) +
             ".csv");
    std::ofstream out(path_);
    registry.write_csv(out);
    return path_;
  }

  std::filesystem::path path_;
};

// (name, kind, field) -> value, as parsed back by the repo's CSV reader.
std::map<std::string, std::string> index_rows(const CsvTable& table) {
  std::map<std::string, std::string> out;
  const auto name = table.column_index("name");
  const auto kind = table.column_index("kind");
  const auto field = table.column_index("field");
  const auto value = table.column_index("value");
  for (const auto& row : table.rows) {
    out[row[name] + "|" + row[kind] + "|" + row[field]] = row[value];
  }
  return out;
}

TEST_F(MetricsCsvTest, CountersAndAccumulatorsRoundTrip) {
  MetricsRegistry registry;
  registry.counter("runner.launch_failures").add(7);
  registry.counter("runner.retries");  // registered but never incremented
  registry.accumulator("runner.backoff_seconds").add(0.25);
  registry.accumulator("runner.backoff_seconds").add(0.5);

  const auto table = read_csv(write_registry(registry));
  ASSERT_EQ(table.header,
            (std::vector<std::string>{"name", "kind", "field", "value"}));
  const auto rows = index_rows(table);
  EXPECT_EQ(rows.at("runner.launch_failures|counter|value"), "7");
  EXPECT_EQ(rows.at("runner.retries|counter|value"), "0");
  EXPECT_DOUBLE_EQ(
      std::stod(rows.at("runner.backoff_seconds|accumulator|value")), 0.75);
}

TEST_F(MetricsCsvTest, EmptyHistogramExportsZeroRowsNotNan) {
  MetricsRegistry registry;
  registry.histogram("serve.select_latency");  // zero samples

  const auto table = read_csv(write_registry(registry));
  const auto rows = index_rows(table);
  EXPECT_EQ(rows.at("serve.select_latency|histogram|count"), "0");
  // mean of an empty histogram must export as 0, never nan/inf.
  EXPECT_DOUBLE_EQ(
      std::stod(rows.at("serve.select_latency|histogram|mean_seconds")), 0.0);
  EXPECT_DOUBLE_EQ(
      std::stod(rows.at("serve.select_latency|histogram|p99_seconds")), 0.0);
}

TEST_F(MetricsCsvTest, PopulatedHistogramRoundTrips) {
  MetricsRegistry registry;
  auto& histogram = registry.histogram("serve.warmup_latency");
  histogram.record_seconds(1e-6);
  histogram.record_seconds(2e-6);
  histogram.record_seconds(1e-3);

  const auto table = read_csv(write_registry(registry));
  const auto rows = index_rows(table);
  EXPECT_EQ(rows.at("serve.warmup_latency|histogram|count"), "3");
  EXPECT_NEAR(
      std::stod(rows.at("serve.warmup_latency|histogram|total_seconds")),
      1e-6 + 2e-6 + 1e-3, 1e-9);
  const double p50 =
      std::stod(rows.at("serve.warmup_latency|histogram|p50_seconds"));
  const double p99 =
      std::stod(rows.at("serve.warmup_latency|histogram|p99_seconds"));
  EXPECT_GT(p50, 0.0);
  EXPECT_GE(p99, p50);
}

// Regression: durations >= 2^63 ns (including +inf) used to hit UB via
// `static_cast<uint64_t>` on an unrepresentable double; they must clamp to
// the last (overflow) bucket instead.
TEST(LatencyHistogramEdges, HugeAndInfiniteDurationsClampToLastBucket) {
  LatencyHistogram histogram;
  histogram.record_seconds(1e12);  // ~31,700 years in ns: >= 2^63
  histogram.record_seconds(std::numeric_limits<double>::infinity());
  histogram.record_seconds(std::numeric_limits<double>::max());

  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_EQ(histogram.bucket_count(LatencyHistogram::kBuckets - 1), 3u);
  // All samples are above the top bucket edge, so every quantile returns
  // the last bucket's upper edge.
  EXPECT_DOUBLE_EQ(
      histogram.quantile_seconds(0.5),
      LatencyHistogram::bucket_upper_seconds(LatencyHistogram::kBuckets - 1));
}

TEST(LatencyHistogramEdges, NanAndNegativeDurationsLandInFirstBucket) {
  LatencyHistogram histogram;
  histogram.record_seconds(std::nan(""));
  histogram.record_seconds(-1.0);
  histogram.record_seconds(-std::numeric_limits<double>::infinity());

  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_EQ(histogram.bucket_count(0), 3u);
  // The underflow bucket's upper edge is finite, so quantiles stay finite
  // even when the recorded durations were nan/-inf.
  EXPECT_TRUE(std::isfinite(histogram.quantile_seconds(0.99)));
}

// Regression: quantile_seconds(0.0) computed rank 0 and returned the first
// bucket's edge even when all samples sat in a higher bucket. q=0 must
// return the first *non-empty* bucket (the minimum sample's bucket).
TEST(LatencyHistogramEdges, QuantileZeroReturnsFirstNonEmptyBucket) {
  LatencyHistogram histogram;
  histogram.record_seconds(1e-3);  // ~2^20 ns: far above bucket 0
  histogram.record_seconds(2e-3);

  const double q0 = histogram.quantile_seconds(0.0);
  EXPECT_GE(q0, 1e-3);
  EXPECT_DOUBLE_EQ(q0, histogram.quantile_seconds(0.01));
}

TEST(LatencyHistogramEdges, QuantileOneReturnsMaxSampleBucket) {
  LatencyHistogram histogram;
  histogram.record_seconds(1e-6);
  histogram.record_seconds(1e-3);

  EXPECT_GE(histogram.quantile_seconds(1.0), 1e-3);
  EXPECT_LT(histogram.quantile_seconds(0.5), 1e-3);
}

// Regression: metric names containing CSV metadata characters used to be
// written verbatim, silently corrupting the `name,kind,field,value` schema.
// They must be rejected at registration instead.
TEST(MetricsNameValidation, RejectsCsvMetadataCharacters) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.counter("bad,name"), Error);
  EXPECT_THROW(registry.counter("bad\"name"), Error);
  EXPECT_THROW(registry.accumulator("bad\nname"), Error);
  EXPECT_THROW(registry.histogram("bad\rname"), Error);
  EXPECT_THROW(registry.counter(""), Error);
  // Legal names (dots, dashes, underscores, spaces) still register.
  EXPECT_NO_THROW(registry.counter("serve.select_total-ok name"));
}

TEST_F(MetricsCsvTest, RejectedNameLeavesRegistryExportable) {
  MetricsRegistry registry;
  registry.counter("good.counter").add(3);
  EXPECT_THROW(registry.counter("bad,name"), Error);

  const auto table = read_csv(write_registry(registry));
  EXPECT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(index_rows(table).at("good.counter|counter|value"), "3");
}

TEST_F(MetricsCsvTest, MixedRegistryParsesWithExactRowCount) {
  MetricsRegistry registry;
  registry.counter("a.counter").add(1);
  registry.accumulator("b.accumulator").add(2.0);
  registry.histogram("c.histogram").record_seconds(1e-6);

  const auto table = read_csv(write_registry(registry));
  // 1 counter row + 1 accumulator row + 6 histogram rows.
  EXPECT_EQ(table.num_rows(), 8u);
}

}  // namespace
}  // namespace aks::common
