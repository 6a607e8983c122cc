// Netlist explorer: build any circuit from this library, print its report
// (gate histogram, area, STA critical path), and optionally dump DOT or a
// VCD trace of a metastability-resolution event.
//
//   $ ./netlist_explorer --circuit sort2 --bits 16 --ppc ladner-fischer
//   $ ./netlist_explorer --circuit date17 --bits 8
//   $ ./netlist_explorer --network 10-sortd --bits 4
//   $ ./netlist_explorer --circuit sort2 --bits 4 --dot
//   $ ./netlist_explorer --circuit sort2 --bits 4 --vcd

#include <iostream>

#include "mcsn/mcsn.hpp"

namespace {

void print_report(const mcsn::Netlist& nl) {
  using namespace mcsn;
  const auto& lib = CellLibrary::paper_calibrated();
  const CircuitStats s = compute_stats(nl, lib);
  std::cout << s << "\n";
  const TimingReport rep = analyze_timing(nl, lib);
  std::cout << "critical path (" << rep.critical_path.size()
            << " nodes): input";
  for (const NodeId id : rep.critical_path) {
    if (is_gate(nl.node(id).kind)) {
      std::cout << " -> " << cell_name(nl.node(id).kind);
    }
  }
  std::cout << " [" << TextTable::num(rep.critical_delay, 1) << " ps]\n";
}

int usage() {
  std::cerr << "usage: example_netlist_explorer [--circuit sort2|date17|"
               "naive|bincomp] [--ppc TOPOLOGY] [--network NAME] [--bits B]"
               " [--dot] [--vcd]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace mcsn;
  const CliArgs args(argc, argv,
                     {"bits", "network", "circuit", "ppc", "dot", "vcd"});
  const std::size_t bits =
      static_cast<std::size_t>(args.get_long_or("bits", 8));

  Netlist nl;
  if (const auto netname = args.get("network")) {
    ComparatorNetwork net = depth_optimal_10();
    bool found = false;
    for (const ComparatorNetwork& cand : paper_networks()) {
      if (cand.name() == *netname) {
        net = cand;
        found = true;
      }
    }
    if (!found) {
      std::cerr << "unknown network '" << *netname
                << "' (try 4-sort, 7-sort, 10-sort#, 10-sortd)\n";
      return 1;
    }
    std::cout << net;
    nl = elaborate_network(net, bits, sort2_builder());
  } else {
    const std::string kind = args.get_or("circuit", "sort2");
    if (kind == "sort2") {
      const auto topo =
          ppc_topology_from_name(args.get_or("ppc", "ladner-fischer"));
      if (!topo) {
        std::cerr << "unknown --ppc topology\n";
        return 1;
      }
      nl = make_sort2(bits, Sort2Options{*topo});
    } else if (kind == "date17") {
      nl = make_sort2_date17_style(bits);
    } else if (kind == "naive") {
      nl = make_sort2_naive_trees(bits);
    } else if (kind == "bincomp") {
      nl = make_bincomp(bits);
    } else {
      std::cerr << "unknown --circuit '" << kind
                << "' (try sort2, date17, naive, bincomp)\n";
      return 1;
    }
  }

  print_report(nl);

  if (args.has("dot")) {
    write_dot(std::cout, nl);
  }
  if (args.has("vcd")) {
    // Trace a resolution event: g marginal between 2 and 3, h = 1.
    EventSimulator sim(nl, CellLibrary::paper_calibrated());
    const std::size_t width = nl.inputs().size();
    Word stim(width, Trit::zero);
    const Word g = valid_from_rank(5, bits);  // rg(2)*rg(3)
    const Word h = valid_from_rank(2, bits);  // rg(1)
    for (std::size_t i = 0; i < bits && i < width; ++i) stim[i] = g[i];
    for (std::size_t i = 0; i < bits && bits + i < width; ++i) {
      stim[bits + i] = h[i];
    }
    for (std::size_t i = 0; i < width; ++i) sim.set_input(i, stim[i], 0.0);
    sim.run();
    sim.set_input(*g.first_meta(), Trit::one, 2000.0);
    sim.run();
    write_vcd(std::cout, nl, sim);
  }
  return 0;
} catch (const mcsn::CliError& e) {
  std::cerr << "netlist_explorer: " << e.what() << "\n";
  return usage();
}
