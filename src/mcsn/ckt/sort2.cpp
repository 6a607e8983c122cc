#include "mcsn/ckt/sort2.hpp"

#include <cassert>
#include <string>

namespace mcsn {

BusPair build_sort2(Netlist& nl, const Bus& g, const Bus& h,
                    const Sort2Options& opt) {
  assert(g.size() == h.size());
  assert(!g.empty());
  const std::size_t bits = g.size();

  if (opt.topology == PpcTopology::serial) {
    // The scan's algebra on a netlist: each operation emits its gates.
    struct GateAlgebra {
      Netlist& nl;
      OpStyle style;
      NodeId and_(NodeId a, NodeId b) const { return nl.and2(a, b); }
      NodeId or_(NodeId a, NodeId b) const { return nl.or2(a, b); }
      NodeId not_(NodeId a) const { return nl.inv(a); }
      NodeId select(NodeId a, NodeId b, NodeId s1, NodeId s2) const {
        return selection_circuit(nl, a, b, s1, s2, style);
      }
    };
    BusPair out{h, g};  // sorted in place: max over h, min over g
    sort2_serial_scan(GateAlgebra{nl, opt.style}, out.min.data(),
                      out.max.data(), bits);
    return out;
  }

  BusPair out;
  out.max.resize(bits);
  out.min.resize(bits);

  // Position 1 (index 0): Ns^{(0)} = (1, 0) reduces outM to OR / AND.
  const PairWires first =
      out_block_first(nl, PairWires{g[0], h[0]});
  out.max[0] = first.first;
  out.min[0] = first.second;
  if (bits == 1) return out;

  // N-encoded leaves (inv(g_i), h_i) for positions 1..B-1.
  std::vector<PairWires> leaves(bits - 1);
  for (std::size_t i = 0; i + 1 < bits; ++i) {
    leaves[i] = PairWires{nl.inv(g[i]), h[i]};
  }

  // All prefix states Ns^{(1)} .. Ns^{(B-1)}.
  const std::vector<PairWires> prefix = parallel_prefix<PairWires>(
      opt.topology, leaves, [&nl, &opt](PairWires a, PairWires b) {
        return diamond_hat_block(nl, a, b, opt.style);
      });

  // Output blocks for positions 2..B.
  for (std::size_t i = 1; i < bits; ++i) {
    const PairWires o =
        out_block(nl, prefix[i - 1], PairWires{g[i], h[i]}, opt.style);
    out.max[i] = o.first;
    out.min[i] = o.second;
  }
  return out;
}

Netlist make_sort2(std::size_t bits, const Sort2Options& opt) {
  Netlist nl("sort2_" + std::string(ppc_topology_name(opt.topology)) + "_b" +
             std::to_string(bits));
  const Bus g = nl.add_input_bus("g", bits);
  const Bus h = nl.add_input_bus("h", bits);
  const BusPair out = build_sort2(nl, g, h, opt);
  nl.mark_output_bus(out.max, "max");
  nl.mark_output_bus(out.min, "min");
  return nl;
}

std::size_t sort2_gate_count(std::size_t bits, PpcTopology topo) {
  if (bits == 1) return 2;
  return 10 * ppc_op_count(topo, bits - 1)  // ^⋄M blocks
         + 10 * (bits - 1)                  // outM blocks, positions 2..B
         + (bits - 1)                       // leaf inverters
         + 2;                               // degenerate position-1 block
}

}  // namespace mcsn
