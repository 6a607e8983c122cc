#include "mcsn/core/word.hpp"

#include <cassert>
#include <ostream>
#include <stdexcept>

namespace mcsn {

std::optional<Word> Word::parse(std::string_view s) {
  Word w(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto t = trit_from_char(s[i]);
    if (!t) return std::nullopt;
    w[i] = *t;
  }
  return w;
}

Word Word::from_uint(std::uint64_t value, std::size_t width) {
  assert(width <= 64);
  Word w(width);
  for (std::size_t i = 0; i < width; ++i) {
    const std::uint64_t bit = (value >> (width - 1 - i)) & 1u;
    w[i] = to_trit(bit != 0);
  }
  return w;
}

bool Word::is_stable() const noexcept {
  for (const Trit t : bits_) {
    if (is_meta(t)) return false;
  }
  return true;
}

std::size_t Word::meta_count() const noexcept {
  std::size_t n = 0;
  for (const Trit t : bits_) n += is_meta(t) ? 1 : 0;
  return n;
}

std::optional<std::size_t> Word::first_meta() const noexcept {
  for (std::size_t i = 0; i < bits_.size(); ++i) {
    if (is_meta(bits_[i])) return i;
  }
  return std::nullopt;
}

std::uint64_t Word::to_uint() const {
  assert(is_stable());
  assert(size() <= 64);
  std::uint64_t v = 0;
  for (const Trit t : bits_) v = (v << 1) | (to_bool(t) ? 1u : 0u);
  return v;
}

bool Word::parity() const {
  assert(is_stable());
  bool p = false;
  for (const Trit t : bits_) p ^= to_bool(t);
  return p;
}

Word Word::sub(std::size_t first, std::size_t last) const {
  assert(first <= last && last < size());
  Word w(last - first + 1);
  for (std::size_t i = first; i <= last; ++i) w[i - first] = bits_[i];
  return w;
}

Word Word::complement() const {
  Word w(size());
  for (std::size_t i = 0; i < size(); ++i) w[i] = trit_not(bits_[i]);
  return w;
}

std::string Word::str() const {
  std::string s;
  s.reserve(size());
  for (const Trit t : bits_) s.push_back(to_char(t));
  return s;
}

Word Word::star(const Word& a, const Word& b) {
  assert(a.size() == b.size());
  Word w(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) w[i] = trit_star(a[i], b[i]);
  return w;
}

Word Word::star(const std::vector<Word>& words) {
  assert(!words.empty());
  Word acc = words.front();
  for (std::size_t i = 1; i < words.size(); ++i) acc = star(acc, words[i]);
  return acc;
}

std::vector<Word> Word::resolutions() const {
  std::vector<Word> out;
  const std::size_t metas = meta_count();
  if (metas > 20) throw std::length_error("Word::resolutions: too many Ms");
  out.reserve(std::size_t{1} << metas);
  for_each_resolution([&out](const Word& w) { out.push_back(w); });
  return out;
}

void Word::for_each_resolution(
    const std::function<void(const Word&)>& fn) const {
  std::vector<std::size_t> meta_pos;
  for (std::size_t i = 0; i < size(); ++i) {
    if (is_meta(bits_[i])) meta_pos.push_back(i);
  }
  Word w = *this;
  const std::uint64_t combos = std::uint64_t{1} << meta_pos.size();
  for (std::uint64_t mask = 0; mask < combos; ++mask) {
    for (std::size_t k = 0; k < meta_pos.size(); ++k) {
      w[meta_pos[k]] = to_trit(((mask >> k) & 1u) != 0);
    }
    fn(w);
  }
}

bool Word::matches_resolution(const Word& stable) const {
  if (stable.size() != size()) return false;
  for (std::size_t i = 0; i < size(); ++i) {
    if (!is_meta(bits_[i]) && bits_[i] != stable[i]) return false;
  }
  return true;
}

std::ostream& operator<<(std::ostream& os, const Word& w) {
  return os << w.str();
}

Word operator+(const Word& a, const Word& b) {
  Word w(a.size() + b.size());
  for (std::size_t i = 0; i < a.size(); ++i) w[i] = a[i];
  for (std::size_t i = 0; i < b.size(); ++i) w[a.size() + i] = b[i];
  return w;
}

std::vector<Word> split_words(std::span<const Trit> flat, std::size_t width) {
  assert(width > 0 && flat.size() % width == 0);
  std::vector<Word> words(flat.size() / width, Word(width));
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::size_t i = 0; i < width; ++i) words[w][i] = flat[w * width + i];
  }
  return words;
}

}  // namespace mcsn
