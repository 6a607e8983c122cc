#include "mcsn/core/trit.hpp"

#include <ostream>

namespace mcsn {

char to_char(Trit t) noexcept {
  switch (t) {
    case Trit::zero: return '0';
    case Trit::one: return '1';
    default: return 'M';
  }
}

std::optional<Trit> trit_from_char(char c) noexcept {
  switch (c) {
    case '0': return Trit::zero;
    case '1': return Trit::one;
    case 'M':
    case 'm':
    case 'X':
    case 'x': return Trit::meta;
    default: return std::nullopt;
  }
}

std::ostream& operator<<(std::ostream& os, Trit t) { return os << to_char(t); }

std::size_t first_invalid_trit(std::span<const Trit> trits) noexcept {
  // One pass that only ORs (it vectorizes), then a byte search on failure.
  const std::size_t words = trits.size() / 8;
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < words; ++i) {
    bad |= invalid_trit_bytes(load_trit_word(trits.data() + 8 * i));
  }
  if (const std::size_t n = trits.size() % 8; n != 0) {
    bad |= invalid_trit_bytes(load_trit_word(trits.data() + 8 * words, n));
  }
  if (bad == 0) return trits.size();
  std::size_t i = 0;
  while (static_cast<unsigned>(trits[i]) <= 2u) ++i;
  return i;
}

}  // namespace mcsn
