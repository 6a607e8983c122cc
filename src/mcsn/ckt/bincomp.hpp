#pragma once
// Bin-comp: the paper's standard, NON-containing binary comparator baseline
// (Sec. 6, Listing 1). Takes plain binary inputs, computes greater = (a > b)
// with a tree comparator, and steers both outputs through standard
// multiplexers. Uses the extended cell set (XNOR2 / AO21 / MUX2 counted as
// one gate each, as in the paper's synthesis flow, which "disfavors" the MC
// designs in gate-count comparisons). It is emitted as written, without
// synthesis optimization: 7B - 2 gates, 110 at B = 16, where the paper's
// optimized Bin-comp has 81.
//
// This circuit does NOT contain metastability: a metastable select bit can
// reach every output mux. The test suite demonstrates exactly that (it
// computes correct results on stable inputs and propagates M wildly on
// marginal ones).

#include "mcsn/ckt/sort2.hpp"
#include "mcsn/netlist/netlist.hpp"

namespace mcsn {

/// Emits the comparator + mux circuit; returns (max, min) buses.
[[nodiscard]] BusPair build_bincomp(Netlist& nl, const Bus& a, const Bus& b);

/// Standalone circuit with inputs a[.], b[.] and outputs max[.], min[.].
[[nodiscard]] Netlist make_bincomp(std::size_t bits);

[[nodiscard]] std::size_t bincomp_gate_count(std::size_t bits);

}  // namespace mcsn
