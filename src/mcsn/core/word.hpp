#pragma once
// Ternary words (fixed-width strings over {0,1,M}) with the resolution and
// superposition operators of the metastability-containment framework
// (Friedrichs/Fuegger/Lenzen; paper Defs. 2.1, 2.5).
//
// Bit order convention: index 0 holds the paper's g_1, i.e. the *first* /
// most significant Gray code bit. word[i] is g_{i+1}.

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mcsn/core/trit.hpp"

namespace mcsn {

/// A fixed-width ternary word. Thin wrapper around std::vector<Trit> with
/// the framework's operators. Value-semantic and cheap to copy at the sizes
/// used here (B <= 64 in practice).
class Word {
 public:
  Word() = default;

  /// Word of `width` trits, all initialized to `fill`.
  explicit Word(std::size_t width, Trit fill = Trit::zero)
      : bits_(width, fill) {}

  Word(std::initializer_list<Trit> bits) : bits_(bits) {}

  /// Parses e.g. "0M10". Returns nullopt if any character is invalid.
  [[nodiscard]] static std::optional<Word> parse(std::string_view s);

  /// Builds a stable word from the bottom `width` bits of `value`,
  /// most significant bit first (index 0 = MSB).
  [[nodiscard]] static Word from_uint(std::uint64_t value, std::size_t width);

  [[nodiscard]] std::size_t size() const noexcept { return bits_.size(); }
  [[nodiscard]] bool empty() const noexcept { return bits_.empty(); }

  [[nodiscard]] Trit operator[](std::size_t i) const { return bits_[i]; }
  [[nodiscard]] Trit& operator[](std::size_t i) { return bits_[i]; }

  [[nodiscard]] auto begin() const noexcept { return bits_.begin(); }
  [[nodiscard]] auto end() const noexcept { return bits_.end(); }

  bool operator==(const Word&) const = default;

  /// True iff no bit is metastable.
  [[nodiscard]] bool is_stable() const noexcept;

  /// Number of metastable bits.
  [[nodiscard]] std::size_t meta_count() const noexcept;

  /// Index of the first metastable bit, or nullopt.
  [[nodiscard]] std::optional<std::size_t> first_meta() const noexcept;

  /// Interprets a *stable* word as an unsigned integer, index 0 = MSB.
  /// Precondition: is_stable().
  [[nodiscard]] std::uint64_t to_uint() const;

  /// Parity (sum of bits mod 2) of a *stable* word. Precondition: stable.
  [[nodiscard]] bool parity() const;

  /// Substring g_{i..j} in the paper's 1-based inclusive notation translated
  /// to 0-based [first, last] inclusive.
  [[nodiscard]] Word sub(std::size_t first, std::size_t last) const;

  /// Bitwise complement (M stays M).
  [[nodiscard]] Word complement() const;

  [[nodiscard]] std::string str() const;

  /// The * operator of Def. 2.1: bitwise superposition. Both words must have
  /// equal width.
  [[nodiscard]] static Word star(const Word& a, const Word& b);

  /// Superposition of a whole set (Obs. 2.2). Precondition: non-empty.
  [[nodiscard]] static Word star(const std::vector<Word>& words);

  /// res(x) of Def. 2.5: all stable words obtained by replacing each M with
  /// 0 or 1, in lexicographic order of the substitution. Size is
  /// 2^meta_count(); guarded to <= 2^20 resolutions.
  [[nodiscard]] std::vector<Word> resolutions() const;

  /// Calls `fn` for every resolution without materializing the set.
  void for_each_resolution(const std::function<void(const Word&)>& fn) const;

  /// True iff `stable` is an element of res(*this).
  [[nodiscard]] bool matches_resolution(const Word& stable) const;

 private:
  std::vector<Trit> bits_;
};

std::ostream& operator<<(std::ostream& os, const Word& w);

/// Concatenation.
[[nodiscard]] Word operator+(const Word& a, const Word& b);

/// Splits a flat trit buffer into consecutive words of `width` trits — the
/// inverse of concatenating them. Precondition: width > 0 and
/// flat.size() divisible by it.
[[nodiscard]] std::vector<Word> split_words(std::span<const Trit> flat,
                                            std::size_t width);

}  // namespace mcsn
