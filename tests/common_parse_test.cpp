// common::parse_number and common::CliArgs: the one checked number parse
// behind every file, flag and environment input, and the one flag parser
// behind both CLIs. A number is the whole text or an Error; a flag is
// declared, given once and given its value, or an Error.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace aks::common {
namespace {

TEST(ParseNumber, AcceptsWholeTextInEveryFormatItReads) {
  EXPECT_EQ(parse_number<int>("-42", "x"), -42);
  EXPECT_EQ(parse_number<std::size_t>("640", "x"), 640u);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615", "x"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_number<std::uint64_t>("00000000000000aA", "x", 16), 0xaau);
  EXPECT_EQ(parse_number<double>("0.25", "x"), 0.25);
  EXPECT_EQ(parse_number<double>("-1e-3", "x"), -1e-3);
  // The selector file stores doubles as `%a` hex; they read back exactly.
  EXPECT_EQ(parse_number<double>("0x1.8p+1", "x"), 3.0);
  EXPECT_EQ(parse_number<double>("-0x1.999999999999ap-4", "x"), -0.1);
  EXPECT_TRUE(std::isinf(parse_number<double>("inf", "x")));
  // Underflow to a denormal or zero is a value, not an overflow.
  EXPECT_EQ(parse_number<double>("1e-400", "x"), 0.0);
}

TEST(ParseNumber, RejectsEveryMalformedText) {
  for (const char* text :
       {"", " 1", "1 ", "\t1", "+1", "1x", "12x", "abc", "0x10", "1.5", "--1"}) {
    EXPECT_THROW((void)parse_number<int>(text, "x"), Error) << text;
  }
  for (const char* text : {"", " 0.5", "0.5 ", "+0.5", "0.1x", "1e", "x"}) {
    EXPECT_THROW((void)parse_number<double>(text, "x"), Error) << text;
  }
  EXPECT_THROW((void)parse_number<std::size_t>("-1", "x"), Error);
  EXPECT_THROW((void)parse_number<std::uint64_t>("zz", "x", 16), Error);
}

TEST(ParseNumber, OverflowAndNarrowingSayOverflows) {
  const auto expect_overflow = [](auto parse) {
    try {
      parse();
      ADD_FAILURE() << "expected common::Error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("overflows"), std::string::npos)
          << e.what();
    }
  };
  expect_overflow([] { (void)parse_number<int>("4294967297", "x"); });
  expect_overflow([] { (void)parse_number<int>("-2147483649", "x"); });
  expect_overflow([] { (void)parse_number<std::uint32_t>("4294967296", "x"); });
  expect_overflow(
      [] { (void)parse_number<std::uint64_t>("18446744073709551616", "x"); });
  expect_overflow([] { (void)parse_number<double>("1e400000", "x"); });
}

TEST(ParseNumber, ErrorNamesWhatAndQuotesTheText) {
  try {
    (void)parse_number<int>("12x", "dataset row 3");
    FAIL() << "expected common::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("dataset row 3"), std::string::npos) << what;
    EXPECT_NE(what.find("'12x'"), std::string::npos) << what;
  }
}

constexpr CliArgs::Flag kFlags[] = {
    {"n", true}, {"out", true}, {"emit-code", false}};

CliArgs parse(std::vector<const char*> tokens) {
  tokens.insert(tokens.begin(), "tool");
  return CliArgs(static_cast<int>(tokens.size()), tokens.data(), kFlags);
}

TEST(CliArgs, ReadsFlagsSwitchesAndPositionals) {
  const auto args = parse({"a", "--n", "5", "--emit-code", "b", "--out", "f"});
  EXPECT_TRUE(args.has("n"));
  EXPECT_TRUE(args.has("emit-code"));
  EXPECT_EQ(args.get("out"), "f");
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  EXPECT_EQ(args.number<std::size_t>("n", 8, 2, 640), 5u);
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"a", "b"}));

  const auto defaults = parse({});
  EXPECT_FALSE(defaults.has("n"));
  EXPECT_EQ(defaults.number<std::size_t>("n", 8, 2, 640), 8u);
}

TEST(CliArgs, UndeclaredRepeatedOrValuelessFlagIsAnError) {
  EXPECT_THROW((void)parse({"--threds", "4"}), Error);
  EXPECT_THROW((void)parse({"--n", "4", "--n", "5"}), Error);
  EXPECT_THROW((void)parse({"--emit-code", "--emit-code"}), Error);
  EXPECT_THROW((void)parse({"--n"}), Error);
  EXPECT_THROW((void)parse({"--n", "--out", "f"}), Error);
}

TEST(CliArgs, NumberRejectsMalformedAndOutOfRangeValues) {
  EXPECT_THROW((void)parse({"--n", "abc"}).number<std::size_t>("n", 8, 2, 640),
               Error);
  EXPECT_THROW((void)parse({"--n", "4x"}).number<std::size_t>("n", 8, 2, 640),
               Error);
  try {
    (void)parse({"--n", "1"}).number<std::size_t>("n", 8, 2, 640);
    FAIL() << "expected common::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--n must be in 2..640"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace aks::common
