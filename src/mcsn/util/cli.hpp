#pragma once
// Minimal command-line flag parser for the tools and examples:
// --key value / --key=value / --flag, plus positionals. Each binary names
// the flags it reads, and answers a CliError (an unknown or repeated flag,
// or a number with trailing characters such as "4x") with its usage line
// and exit status 2.

#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mcsn {

class CliError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class CliArgs {
 public:
  /// Parses argv. `known` lists every flag the binary reads, without the
  /// leading dashes; the first flag not among them, or given a second
  /// time, throws CliError.
  CliArgs(int argc, const char* const* argv,
          std::initializer_list<std::string_view> known);

  /// Value of --key (either "--key value" or "--key=value").
  [[nodiscard]] std::optional<std::string> get(std::string_view key) const;

  [[nodiscard]] std::string get_or(std::string_view key,
                                   std::string fallback) const;

  /// --key as a decimal integer, or `fallback` when absent. Throws
  /// CliError when the value is not wholly an integer ("", "4x", "1.5").
  [[nodiscard]] long get_long_or(std::string_view key, long fallback) const;

  /// Like get_long_or, for a floating-point value ("0.5", "1e3"), read
  /// independently of the locale.
  [[nodiscard]] double get_double_or(std::string_view key,
                                     double fallback) const;

  /// True if --key is present (with or without value).
  [[nodiscard]] bool has(std::string_view key) const;

  /// Positional (non-flag) arguments.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> flags_;
  std::vector<std::string> positional_;
};

}  // namespace mcsn
