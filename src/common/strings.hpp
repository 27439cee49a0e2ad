// Small string utilities (split/trim/join/formatting) for CSV handling and
// human-readable report output, plus the one checked number parse and the
// one command-line flag parser: every number read from a file, a flag or
// the environment goes through parse_number, and both CLIs read their flags
// through CliArgs.
#pragma once

#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace aks::common {

/// Splits on a single-character delimiter; keeps empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char delim);

/// Removes leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Joins with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// True if `s` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Fixed-point formatting with the given number of decimals.
[[nodiscard]] std::string format_fixed(double value, int decimals);

/// Left-pads with spaces to the given width.
[[nodiscard]] std::string pad_left(std::string_view s, std::size_t width);

/// Right-pads with spaces to the given width.
[[nodiscard]] std::string pad_right(std::string_view s, std::size_t width);

/// Parses the whole of `text` as a T: integers with std::from_chars in
/// `base`, doubles with strtod (so decimal, `%a` hex, inf and nan read).
/// Throws Error naming `what` on empty text, a leading space or '+',
/// trailing characters, '-' for an unsigned T, or a value T cannot hold
/// (the message says "overflows"). Instantiated for int, long, long long,
/// their unsigned counterparts and double.
template <typename T>
[[nodiscard]] T parse_number(std::string_view text, std::string_view what,
                             int base = 10);

/// One tool's command line, checked against its declared flag table:
/// `--name value` for a flag that takes a value, a bare `--name` for one
/// that does not, and every other token is positional. An undeclared,
/// repeated or valueless flag throws Error from the constructor, so a typo
/// never runs silently with the default.
class CliArgs {
 public:
  struct Flag {
    std::string_view name;  ///< without the leading "--"
    bool takes_value;
  };

  /// Parses argv[1..argc) against `flags`.
  CliArgs(int argc, const char* const* argv, std::span<const Flag> flags);

  [[nodiscard]] bool has(std::string_view name) const {
    return values_.contains(name);
  }
  /// The flag's value, or `fallback` when the flag is absent.
  [[nodiscard]] std::string get(std::string_view name,
                                std::string_view fallback = {}) const;
  /// The flag's value through parse_number, which must lie in [min, max];
  /// `fallback` when the flag is absent.
  template <typename T>
  [[nodiscard]] T number(std::string_view name, T fallback, T min,
                         T max) const {
    if (!has(name)) return fallback;
    const std::string flag = "--" + std::string(name);
    const T value = parse_number<T>(get(name), flag);
    AKS_CHECK(value >= min && value <= max,
              flag << " must be in " << min << ".." << max << ", got "
                   << value);
    return value;
  }
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::map<std::string, std::string, std::less<>> values_;
  std::vector<std::string> positional_;
};

}  // namespace aks::common
