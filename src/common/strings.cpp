#include "common/strings.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <type_traits>

namespace aks::common {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::string format_fixed(double value, int decimals) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(decimals);
  os << value;
  return os.str();
}

std::string pad_left(std::string_view s, std::size_t width) {
  if (s.size() >= width) return std::string(s);
  return std::string(width - s.size(), ' ') + std::string(s);
}

std::string pad_right(std::string_view s, std::size_t width) {
  if (s.size() >= width) return std::string(s);
  return std::string(s) + std::string(width - s.size(), ' ');
}

template <typename T>
T parse_number(std::string_view text, std::string_view what, int base) {
  const auto fail = [&](std::string_view problem) {
    AKS_FAIL(what << ": " << problem << ": '" << text << "'");
  };
  T value{};
  if constexpr (std::is_same_v<T, double>) {
    // strtod would skip a leading space and take a '+'; from_chars (the
    // integer path) takes neither, so both paths reject the same text.
    if (text.empty() || text.front() == '+' ||
        std::isspace(static_cast<unsigned char>(text.front())) != 0) {
      fail("expected a number");
    }
    const std::string terminated(text);
    char* end = nullptr;
    errno = 0;
    value = std::strtod(terminated.c_str(), &end);
    if (end != terminated.c_str() + terminated.size()) {
      fail("expected a number");
    }
    if (errno == ERANGE && std::abs(value) == HUGE_VAL) {
      fail("value overflows double");
    }
  } else {
    const char* const end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value, base);
    if (ec == std::errc::result_out_of_range) {
      std::ostringstream range;
      range << "value overflows " << std::numeric_limits<T>::min() << ".."
            << std::numeric_limits<T>::max();
      fail(range.str());
    }
    if (ec != std::errc{} || ptr != end) {
      fail(base == 16 ? "expected a hexadecimal integer"
                      : "expected an integer");
    }
  }
  return value;
}

template int parse_number<int>(std::string_view, std::string_view, int);
template long parse_number<long>(std::string_view, std::string_view, int);
template long long parse_number<long long>(std::string_view,
                                           std::string_view, int);
template unsigned parse_number<unsigned>(std::string_view, std::string_view,
                                         int);
template unsigned long parse_number<unsigned long>(std::string_view,
                                                   std::string_view, int);
template unsigned long long parse_number<unsigned long long>(
    std::string_view, std::string_view, int);
template double parse_number<double>(std::string_view, std::string_view, int);

CliArgs::CliArgs(int argc, const char* const* argv,
                 std::span<const Flag> flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view token = argv[i];
    if (!starts_with(token, "--")) {
      positional_.emplace_back(token);
      continue;
    }
    const std::string_view name = token.substr(2);
    const auto flag = std::find_if(
        flags.begin(), flags.end(),
        [&](const Flag& f) { return f.name == name; });
    AKS_CHECK(flag != flags.end(), "unknown option '" << token << "'");
    AKS_CHECK(!has(name), "option '" << token << "' given twice");
    std::string value;
    if (flag->takes_value) {
      AKS_CHECK(i + 1 < argc && !starts_with(argv[i + 1], "--"),
                "missing value for option " << token);
      value = argv[++i];
    }
    values_.emplace(name, std::move(value));
  }
}

std::string CliArgs::get(std::string_view name,
                         std::string_view fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? std::string(fallback) : it->second;
}

}  // namespace aks::common
