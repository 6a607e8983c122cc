#pragma once
// Ternary (Kleene) logic values for worst-case metastability modeling.
//
// The paper (Bund/Lenzen/Medina, DATE 2018) models a metastable signal by a
// third value M. Basic gates (AND, OR, inverter) compute the *metastable
// closure* of their Boolean function (paper Table 3), which coincides with
// Kleene's strong three-valued logic: M behaves as "could be 0 or 1, possibly
// a time-varying voltage in between".

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>

namespace mcsn {

/// One ternary signal value: stable 0, stable 1, or metastable M.
enum class Trit : std::uint8_t {
  zero = 0,
  one = 1,
  meta = 2,
};

/// Number of distinct Trit values (used to size lookup tables).
inline constexpr int kTritCount = 3;

/// All trits in canonical order {0, 1, M}; handy for exhaustive loops.
inline constexpr Trit kAllTrits[kTritCount] = {Trit::zero, Trit::one,
                                               Trit::meta};

[[nodiscard]] constexpr bool is_stable(Trit t) noexcept {
  return t != Trit::meta;
}

[[nodiscard]] constexpr bool is_meta(Trit t) noexcept {
  return t == Trit::meta;
}

/// Converts a stable trit to bool. Precondition: is_stable(t).
[[nodiscard]] constexpr bool to_bool(Trit t) noexcept {
  return t == Trit::one;
}

[[nodiscard]] constexpr Trit to_trit(bool b) noexcept {
  return b ? Trit::one : Trit::zero;
}

/// Index in [0,3) for table lookups.
[[nodiscard]] constexpr int index(Trit t) noexcept {
  return static_cast<int>(t);
}

[[nodiscard]] constexpr Trit trit_from_index(int i) noexcept {
  return static_cast<Trit>(i);
}

// --- Gate semantics (paper Table 3) ---------------------------------------
//
// AND: a 0 on either input forces 0 (suppresses metastability), otherwise any
// M propagates. OR dually. The inverter maps M to M.

[[nodiscard]] constexpr Trit trit_and(Trit a, Trit b) noexcept {
  if (a == Trit::zero || b == Trit::zero) return Trit::zero;
  if (a == Trit::one && b == Trit::one) return Trit::one;
  return Trit::meta;
}

[[nodiscard]] constexpr Trit trit_or(Trit a, Trit b) noexcept {
  if (a == Trit::one || b == Trit::one) return Trit::one;
  if (a == Trit::zero && b == Trit::zero) return Trit::zero;
  return Trit::meta;
}

[[nodiscard]] constexpr Trit trit_not(Trit a) noexcept {
  switch (a) {
    case Trit::zero: return Trit::one;
    case Trit::one: return Trit::zero;
    default: return Trit::meta;
  }
}

/// XOR under the closure: any metastable input makes the output metastable
/// (flipping either input always flips the output).
[[nodiscard]] constexpr Trit trit_xor(Trit a, Trit b) noexcept {
  if (is_meta(a) || is_meta(b)) return Trit::meta;
  return to_trit(to_bool(a) != to_bool(b));
}

/// Metastability-containing multiplexer behavior ("cmux" of Friedrichs et
/// al.): with a metastable select but equal stable data inputs, the output is
/// that data value. This is the closure of the Boolean mux:
///   mux(d0, d1, s) = s ? d1 : d0.
[[nodiscard]] constexpr Trit trit_mux(Trit d0, Trit d1, Trit s) noexcept {
  if (s == Trit::zero) return d0;
  if (s == Trit::one) return d1;
  return d0 == d1 ? d0 : Trit::meta;
}

/// The * ("superposition") operator of Def. 2.1, on single trits:
/// equal values stay, differing values become M.
[[nodiscard]] constexpr Trit trit_star(Trit a, Trit b) noexcept {
  return a == b ? a : Trit::meta;
}

// --- Eight trits per 64-bit word -------------------------------------------
//
// A Trit array holds one byte per trit, so eight consecutive trits load as
// one 64-bit word with trit j in byte j (bits [8j, 8j + 8)) on either byte
// order. The engine's unpack and the wire codec move trits this way.

/// The low bit of every byte of a trit word, and the two bits a Trit uses.
inline constexpr std::uint64_t kTritWordLsb = 0x0101010101010101u;
inline constexpr std::uint64_t kTritWordMask = 0x0303030303030303u;

/// Trits p[0, n), n <= 8, as one word: trit j in byte j, bytes n..7 zero.
[[nodiscard]] inline std::uint64_t load_trit_word(const Trit* p,
                                                  std::size_t n = 8) noexcept {
  std::uint64_t w = 0;
  std::memcpy(&w, p, n);
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  return w;
}

/// Stores bytes [0, n) of `w`, n <= 8, to p[0, n): byte j to p[j].
inline void store_trit_word(Trit* p, std::uint64_t w,
                            std::size_t n = 8) noexcept {
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  std::memcpy(p, &w, n);
}

/// Nonzero exactly in the bytes of the trit word `w` that hold no Trit
/// value: a bit above the two a trit uses, or both of them (code 3). Its
/// lowest set bit lies in the first bad byte.
[[nodiscard]] constexpr std::uint64_t invalid_trit_bytes(
    std::uint64_t w) noexcept {
  return (w & ~kTritWordMask) | (w & (w >> 1) & kTritWordLsb);
}

/// Index of the first element of `trits` whose byte is not 0, 1 or 2 (a
/// Trit cast from any other value), or trits.size() when there is none.
[[nodiscard]] std::size_t first_invalid_trit(
    std::span<const Trit> trits) noexcept;

/// '0', '1', or 'M'.
[[nodiscard]] char to_char(Trit t) noexcept;

/// Parses '0', '1', 'M' (also accepts 'm', 'X', 'x' for M). Returns nullopt
/// on any other character.
[[nodiscard]] std::optional<Trit> trit_from_char(char c) noexcept;

std::ostream& operator<<(std::ostream& os, Trit t);

}  // namespace mcsn
