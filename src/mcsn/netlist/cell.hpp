#pragma once
// Standard-cell vocabulary for gate-level netlists.
//
// The paper's metastability-containing circuits are restricted to INV, AND2,
// OR2 — cells whose silicon behavior provably equals the metastable closure
// of their Boolean function (NanGate 45 nm documentation; paper Sec. 6).
// The extended cells are provided for the *non-containing* Bin-comp baseline
// and for "transistor-level optimization" ablations; their ternary semantics
// are likewise the closure of their Boolean function, which holds for
// single-stage CMOS gates (AOI/OAI) and is the standard modeling assumption.

#include <array>
#include <cstdint>
#include <string_view>

#include "mcsn/core/trit.hpp"

namespace mcsn {

enum class CellKind : std::uint8_t {
  input,   // primary input (no fanin)
  const0,  // tie-low
  const1,  // tie-high
  inv,     // !a
  and2,    // a & b
  or2,     // a | b
  nand2,   // !(a & b)
  nor2,    // !(a | b)
  xor2,    // a ^ b
  xnor2,   // !(a ^ b)
  mux2,    // s ? b : a      (inputs a, b, s)
  aoi21,   // !((a & b) | c)
  oai21,   // !((a | b) & c)
  ao21,    // (a & b) | c
  oa21,    // (a | b) & c
};

inline constexpr int kCellKindCount = 15;

/// Number of fanin pins (0 for input/constants).
[[nodiscard]] constexpr int cell_arity(CellKind k) noexcept {
  switch (k) {
    case CellKind::input:
    case CellKind::const0:
    case CellKind::const1: return 0;
    case CellKind::inv: return 1;
    case CellKind::mux2:
    case CellKind::aoi21:
    case CellKind::oai21:
    case CellKind::ao21:
    case CellKind::oa21: return 3;
    default: return 2;
  }
}

/// True for cells the MC design style may use (metastable closure verified
/// gate behavior in the model of [6]).
[[nodiscard]] constexpr bool is_mc_safe(CellKind k) noexcept {
  switch (k) {
    case CellKind::input:
    case CellKind::const0:
    case CellKind::const1:
    case CellKind::inv:
    case CellKind::and2:
    case CellKind::or2: return true;
    default: return false;
  }
}

/// True for logic cells (anything with fanin).
[[nodiscard]] constexpr bool is_gate(CellKind k) noexcept {
  return cell_arity(k) > 0;
}

[[nodiscard]] std::string_view cell_name(CellKind k) noexcept;

/// NanGate-style library cell name (e.g. "AND2_X1").
[[nodiscard]] std::string_view cell_lib_name(CellKind k) noexcept;

/// Ternary evaluation: the metastable closure of the cell's Boolean function.
/// For every cell here the closure equals the simple composition of Kleene
/// operators because each input pin is read exactly once.
[[nodiscard]] constexpr Trit cell_eval(CellKind k, Trit a, Trit b,
                                       Trit c) noexcept {
  switch (k) {
    case CellKind::const0: return Trit::zero;
    case CellKind::const1: return Trit::one;
    case CellKind::input: return Trit::meta;  // unresolved; callers override
    case CellKind::inv: return trit_not(a);
    case CellKind::and2: return trit_and(a, b);
    case CellKind::or2: return trit_or(a, b);
    case CellKind::nand2: return trit_not(trit_and(a, b));
    case CellKind::nor2: return trit_not(trit_or(a, b));
    case CellKind::xor2: return trit_xor(a, b);
    case CellKind::xnor2: return trit_not(trit_xor(a, b));
    case CellKind::mux2: return trit_mux(a, b, c);
    case CellKind::aoi21: return trit_not(trit_or(trit_and(a, b), c));
    case CellKind::oai21: return trit_not(trit_and(trit_or(a, b), c));
    case CellKind::ao21: return trit_or(trit_and(a, b), c);
    case CellKind::oa21: return trit_and(trit_or(a, b), c);
  }
  return Trit::meta;
}

/// Boolean evaluation on stable inputs.
[[nodiscard]] constexpr bool cell_eval_bool(CellKind k, bool a, bool b,
                                            bool c) noexcept {
  return to_bool(
      cell_eval(k, to_trit(a), to_trit(b), to_trit(c)));
}

}  // namespace mcsn
