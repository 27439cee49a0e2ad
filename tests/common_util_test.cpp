#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"

namespace aks::common {
namespace {

std::filesystem::path temp_file(const std::string& name) {
  return std::filesystem::temp_directory_path() / ("aks_test_" + name);
}

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(Strings, TrimWhitespace) {
  EXPECT_EQ(trim("  hi \t"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \n "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, JoinWithSeparator) {
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("wg8x8", "wg"));
  EXPECT_FALSE(starts_with("8x8", "wg"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(Strings, FormatFixedDecimals) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
  EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcdef", 4), "abcdef");
}

TEST(Csv, RoundTripTable) {
  CsvTable table;
  table.header = {"name", "value"};
  table.rows = {{"a", "1"}, {"b", "2"}};
  const auto path = temp_file("roundtrip.csv");
  write_csv(path, table);
  const auto loaded = read_csv(path);
  EXPECT_EQ(loaded.header, table.header);
  EXPECT_EQ(loaded.rows, table.rows);
  std::filesystem::remove(path);
}

TEST(Csv, ColumnIndexLookup) {
  CsvTable table;
  table.header = {"m", "k", "n"};
  EXPECT_EQ(table.column_index("k"), 1u);
  EXPECT_THROW((void)table.column_index("missing"), Error);
}

TEST(Csv, MissingFileThrows) {
  EXPECT_THROW(read_csv("/nonexistent/path/file.csv"), Error);
}

TEST(Csv, RaggedRowThrowsOnRead) {
  const auto path = temp_file("ragged.csv");
  std::ofstream(path) << "a,b\n1,2\n3\n";
  EXPECT_THROW(read_csv(path), Error);
  std::filesystem::remove(path);
}

TEST(Csv, RaggedRowThrowsOnWrite) {
  CsvTable table;
  table.header = {"a", "b"};
  table.rows = {{"1"}};
  EXPECT_THROW(write_csv(temp_file("bad.csv"), table), Error);
}

TEST(Csv, NumericMatrixRoundTrip) {
  Matrix m{{1.5, -2.0}, {0.25, 1e6}};
  const auto path = temp_file("numeric.csv");
  write_matrix_csv(path, {"x", "y"}, m, 6);
  const auto loaded = parse_numeric(read_csv(path));
  ASSERT_EQ(loaded.rows(), 2u);
  ASSERT_EQ(loaded.cols(), 2u);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 2; ++c)
      EXPECT_NEAR(loaded(r, c), m(r, c), 1e-6);
  std::filesystem::remove(path);
}

TEST(Csv, ParseNumericRejectsText) {
  CsvTable table;
  table.header = {"x"};
  table.rows = {{"not_a_number"}};
  EXPECT_THROW(parse_numeric(table), Error);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer timer;
  // Busy loop long enough to register.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(timer.elapsed_seconds(), 0.0);
  EXPECT_GT(timer.elapsed_nanoseconds(), 0);
  timer.reset();
  EXPECT_LT(timer.elapsed_seconds(), 1.0);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleItemRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++count;
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 57) throw Error("boom");
                                 }),
               Error);
}

TEST(ThreadPool, ReusableAfterException) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(10, [](std::size_t) { throw Error("first"); });
  } catch (const Error&) {
  }
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, GlobalPoolIsShared) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().num_threads(), 1u);
}

TEST(ErrorMacros, CheckCarriesMessageAndLocation) {
  try {
    AKS_CHECK(1 == 2, "custom message " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom message 42"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("common_util_test.cpp"), std::string::npos);
  }
}

TEST(ErrorMacros, FailAlwaysThrows) {
  EXPECT_THROW(AKS_FAIL("unconditional"), Error);
}

}  // namespace
}  // namespace aks::common
