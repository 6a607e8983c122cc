#include "mcsn/util/cli.hpp"

#include <algorithm>
#include <charconv>

namespace mcsn {

namespace {

// The value of --key parsed whole as a T, or a CliError naming the flag.
template <class T>
T parse_whole(std::string_view key, const std::string& text,
              const char* what) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    throw CliError("--" + std::string(key) + ": '" + text + "' is not " +
                   what);
  }
  return value;
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv,
                 std::initializer_list<std::string_view> known) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.emplace_back(arg);
      continue;
    }
    const std::string_view body = arg.substr(2);
    const std::size_t eq = body.find('=');
    const std::string_view key = body.substr(0, eq);
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw CliError("unknown flag --" + std::string(key));
    }
    if (has(key)) throw CliError("flag --" + std::string(key) + " given twice");
    if (eq != std::string_view::npos) {
      flags_.emplace_back(std::string(key), std::string(body.substr(eq + 1)));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) !=
                                   0) {
      flags_.emplace_back(std::string(key), std::string(argv[++i]));
    } else {
      flags_.emplace_back(std::string(key), std::string{});
    }
  }
}

std::optional<std::string> CliArgs::get(std::string_view key) const {
  for (const auto& [k, v] : flags_) {
    if (k == key) return v;
  }
  return std::nullopt;
}

std::string CliArgs::get_or(std::string_view key, std::string fallback) const {
  if (auto v = get(key)) return *v;
  return fallback;
}

long CliArgs::get_long_or(std::string_view key, long fallback) const {
  if (auto v = get(key)) return parse_whole<long>(key, *v, "an integer");
  return fallback;
}

double CliArgs::get_double_or(std::string_view key, double fallback) const {
  if (auto v = get(key)) return parse_whole<double>(key, *v, "a number");
  return fallback;
}

bool CliArgs::has(std::string_view key) const { return get(key).has_value(); }

}  // namespace mcsn
