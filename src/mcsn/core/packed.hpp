#pragma once
// Packed dual-rail representation of many independent ternary values.
//
// Each lane (bit position) carries one ternary value encoded on two rails:
//   can0 bit set  -> the value can resolve to 0
//   can1 bit set  -> the value can resolve to 1
// 0 = (1,0), 1 = (0,1), M = (1,1). (0,0) is invalid and never produced.
//
// Kleene gate semantics become plain bitwise ops on the rails, giving
// lane-parallel netlist evaluation: an inverter swaps the rails, and OR is
// AND with both rails swapped on every pin and on the result.
//
// Layout is planar: a value is its can0 rail followed by its can1 rail, and
// each rail is one contiguous machine vector (one 64-bit word for
// PackedTrit, a 32-byte Rail256 for PackedTrit256). The compiled engine
// (netlist/compile.hpp) stores a program's values as one flat rail array in
// exactly this order, so rail 2*slot is a slot's can0 and rail 2*slot + 1
// its can1; flipping the low bit of a rail index reads the complement.

#include <array>
#include <cstdint>

#include "mcsn/core/trit.hpp"

namespace mcsn {

/// The ternary value a lane's two rail bits encode.
[[nodiscard]] constexpr Trit trit_from_rails(bool can0, bool can1) noexcept {
  if (can0 && can1) return Trit::meta;
  return can1 ? Trit::one : Trit::zero;
}

/// Bit `lane` of a 64-lane rail.
[[nodiscard]] constexpr bool rail_bit(std::uint64_t rail, int lane) noexcept {
  return ((rail >> lane) & 1u) != 0;
}

struct PackedTrit {
  std::uint64_t can0 = ~std::uint64_t{0};  // default: all lanes 0
  std::uint64_t can1 = 0;

  friend bool operator==(const PackedTrit&, const PackedTrit&) = default;

  /// All 64 lanes set to the same value.
  [[nodiscard]] static constexpr PackedTrit splat(Trit t) noexcept {
    switch (t) {
      case Trit::zero: return {~std::uint64_t{0}, 0};
      case Trit::one: return {0, ~std::uint64_t{0}};
      default: return {~std::uint64_t{0}, ~std::uint64_t{0}};
    }
  }

  /// Reads one lane back as a Trit.
  [[nodiscard]] constexpr Trit lane(int i) const noexcept {
    return trit_from_rails(rail_bit(can0, i), rail_bit(can1, i));
  }

  /// Writes one lane.
  constexpr void set_lane(int i, Trit t) noexcept {
    const std::uint64_t bit = std::uint64_t{1} << i;
    can0 &= ~bit;
    can1 &= ~bit;
    if (t != Trit::one) can0 |= bit;
    if (t != Trit::zero) can1 |= bit;
  }
};

// An AND output can be 1 only if both inputs can be 1; it can be 0 if either
// input can be 0. OR dually; NOT swaps rails. These are exactly the closure
// (Kleene) semantics of Table 3, lane-parallel, for PackedTrit and
// PackedTrit256 alike. They are each cell's dual-rail formula: the IR
// verifier's netlist replay (verify_ir.hpp) rebuilds every netlist cell
// from them, and the served engine's serial scan runs on them.

template <class P>
[[nodiscard]] constexpr P packed_and(const P& a, const P& b) noexcept {
  return {a.can0 | b.can0, a.can1 & b.can1};
}

template <class P>
[[nodiscard]] constexpr P packed_or(const P& a, const P& b) noexcept {
  return {a.can0 & b.can0, a.can1 | b.can1};
}

template <class P>
[[nodiscard]] constexpr P packed_not(const P& a) noexcept {
  return {a.can1, a.can0};
}

[[nodiscard]] constexpr PackedTrit packed_xor(PackedTrit a,
                                              PackedTrit b) noexcept {
  // can be 0: (a can0 & b can0) | (a can1 & b can1); can be 1 dually.
  return {(a.can0 & b.can0) | (a.can1 & b.can1),
          (a.can0 & b.can1) | (a.can1 & b.can0)};
}

/// Closure of mux(d0, d1, s) = s ? d1 : d0, lane-parallel.
[[nodiscard]] constexpr PackedTrit packed_mux(PackedTrit d0, PackedTrit d1,
                                              PackedTrit s) noexcept {
  return {(s.can0 & d0.can0) | (s.can1 & d1.can0),
          (s.can0 & d0.can1) | (s.can1 & d1.can1)};
}

// --- 256-lane planar packing ------------------------------------------------

/// One rail of 256 lanes: four 64-bit words in one contiguous, aligned
/// 32-byte vector. The word loops compile to one AVX2 op (two SSE2 ops).
struct alignas(32) Rail256 {
  std::array<std::uint64_t, 4> word{};

  friend bool operator==(const Rail256&, const Rail256&) = default;

  [[nodiscard]] static constexpr Rail256 fill(std::uint64_t w) noexcept {
    return {{w, w, w, w}};
  }

  friend constexpr Rail256 operator&(const Rail256& a,
                                     const Rail256& b) noexcept {
    Rail256 r;
    for (std::size_t i = 0; i < 4; ++i) r.word[i] = a.word[i] & b.word[i];
    return r;
  }
  friend constexpr Rail256 operator|(const Rail256& a,
                                     const Rail256& b) noexcept {
    Rail256 r;
    for (std::size_t i = 0; i < 4; ++i) r.word[i] = a.word[i] | b.word[i];
    return r;
  }
};

/// Bit `lane` of a 256-lane rail.
[[nodiscard]] constexpr bool rail_bit(const Rail256& rail, int lane) noexcept {
  return rail_bit(rail.word[static_cast<std::size_t>(lane / 64)], lane % 64);
}

/// 256 lanes in the planar layout: the can0 rail, then the can1 rail.
struct PackedTrit256 {
  static constexpr int kLanes = 256;

  Rail256 can0 = Rail256::fill(~std::uint64_t{0});  // default: all lanes 0
  Rail256 can1{};

  friend bool operator==(const PackedTrit256&, const PackedTrit256&) = default;

  /// All kLanes lanes set to the same value.
  [[nodiscard]] static constexpr PackedTrit256 splat(Trit t) noexcept {
    const PackedTrit p = PackedTrit::splat(t);
    return {Rail256::fill(p.can0), Rail256::fill(p.can1)};
  }

  /// Reads lane i in [0, kLanes).
  [[nodiscard]] constexpr Trit lane(int i) const noexcept {
    return trit_from_rails(rail_bit(can0, i), rail_bit(can1, i));
  }

  /// Writes lane i in [0, kLanes).
  constexpr void set_lane(int i, Trit t) noexcept {
    const auto w = static_cast<std::size_t>(i / 64);
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    can0.word[w] &= ~bit;
    can1.word[w] &= ~bit;
    if (t != Trit::one) can0.word[w] |= bit;
    if (t != Trit::zero) can1.word[w] |= bit;
  }
};

}  // namespace mcsn
