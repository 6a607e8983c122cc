#pragma once
// The paper's contribution: metastability-containing 2-sort(B) with
// asymptotically optimal depth O(log B) and size O(B) (paper Fig. 5).
//
// Structure:
//   - one inverter per position 1..B-1 produces the N-encoded leaf
//     (inv(g_i), h_i) feeding the PPC;
//   - a PPC over B-1 leaves computes the N-encoded prefix states
//     Ns^{(1)} .. Ns^{(B-1)} with the ^⋄M block as operator;
//   - position 1 output degenerates to (OR, AND); positions 2..B use the
//     outM block on (Ns^{(i-1)}, g_i h_i).
//
// With the Ladner-Fischer topology the gate count is exactly
//   10 * ppc_op_count(B-1) + 10 * (B-1) + (B-1) + 2,
// i.e. 13 / 55 / 169 / 407 gates for B = 2 / 4 / 8 / 16 — matching the
// paper's Table 7 row "This paper".

#include <cstddef>

#include "mcsn/ckt/ops.hpp"
#include "mcsn/ckt/ppc.hpp"
#include "mcsn/netlist/netlist.hpp"

namespace mcsn {

struct Sort2Options {
  PpcTopology topology = PpcTopology::ladner_fischer;
  /// aoi_cells swaps each 5-gate selection circuit for a fused 3-cell
  /// OA21/AO21/INV version (the paper's anticipated transistor-level
  /// optimization); identical ternary behavior, not counted as "MC-safe
  /// simple gates" by Netlist::mc_safe().
  OpStyle style = OpStyle::simple_gates;
};

struct BusPair {
  Bus max;
  Bus min;
};

/// The serial 2-sort(B), the paper's comparison FSM unrolled over the bits
/// (Theorems 4.1 and 4.3), over a value algebra with and_, or_, not_ and
/// select(a, b, s1, s2) = ((s1 | a) & b) | (~s2 & a) (ckt/ops.hpp). Sorts
/// in place: reads `lo` as g and `hi` as h (`bits` >= 1 values each) and
/// writes min to `lo`, max to `hi`. Position 1 is (OR, AND); each later one
/// is outM on the N-encoded state (p, q), and all but the last fold the
/// leaf (~g_i, h_i) into it with ⋄M. build_sort2 runs it on gates for the
/// serial topology; the served engine runs it on PackedTrit256.
template <class Algebra, class Value>
void sort2_serial_scan(const Algebra& alg, Value* lo, Value* hi,
                       std::size_t bits) {
  const Value g0 = lo[0];
  const Value h0 = hi[0];
  hi[0] = alg.or_(g0, h0);
  lo[0] = alg.and_(g0, h0);
  if (bits == 1) return;
  Value p = alg.not_(g0);
  Value q = h0;
  for (std::size_t i = 1;; ++i) {
    const Value g = lo[i];
    const Value h = hi[i];
    hi[i] = alg.select(g, h, p, q);
    lo[i] = alg.select(h, g, q, p);
    if (i + 1 == bits) return;
    const Value not_g = alg.not_(g);
    const Value next_p = alg.select(q, p, not_g, not_g);
    q = alg.select(q, p, h, h);
    p = next_p;
  }
}

/// Emits a 2-sort(B) into `nl` operating on existing buses g, h (equal
/// width >= 1); returns the (max, min) output buses. Does not mark outputs.
[[nodiscard]] BusPair build_sort2(Netlist& nl, const Bus& g, const Bus& h,
                                  const Sort2Options& opt = {});

/// Standalone circuit with inputs g[.], h[.] and outputs max[.], min[.].
[[nodiscard]] Netlist make_sort2(std::size_t bits,
                                 const Sort2Options& opt = {});

/// Closed-form gate count of the construction (any topology).
[[nodiscard]] std::size_t sort2_gate_count(
    std::size_t bits, PpcTopology topo = PpcTopology::ladner_fischer);

}  // namespace mcsn
