// RTL export: replicates the paper's design-entry step. Builds the chosen
// MC circuit, runs the ternary-exact optimizer, and writes the hand-mapped
// structural Verilog (plus optional DOT) that the paper's flow would place
// and route with optimization disabled.
//
//   $ ./export_rtl --bits 16 --out sort2_b16.v
//   $ ./export_rtl --network 10-sortd --bits 8 --out sorter.v --no-opt

#include <fstream>
#include <iostream>

#include "mcsn/mcsn.hpp"

int main(int argc, char** argv) try {
  using namespace mcsn;
  const CliArgs args(argc, argv, {"bits", "network", "no-opt", "out"});
  const std::size_t bits =
      static_cast<std::size_t>(args.get_long_or("bits", 16));

  Netlist nl;
  if (const auto netname = args.get("network")) {
    bool found = false;
    for (const ComparatorNetwork& cand : paper_networks()) {
      if (cand.name() == *netname) {
        nl = elaborate_network(cand, bits, sort2_builder());
        found = true;
      }
    }
    if (!found) {
      std::cerr << "unknown network '" << *netname << "'\n";
      return 1;
    }
  } else {
    nl = make_sort2(bits);
  }

  std::cout << "built:     " << compute_stats(nl) << "\n";
  if (!args.has("no-opt")) {
    OptResult res = optimize(nl);
    // Safety net, mirroring the paper's concern about synthesis: prove the
    // optimized netlist ternary-equivalent before exporting it.
    EquivOptions eq;
    eq.exhaustive_bound = 1u << 14;
    eq.random_samples = 20'000;
    if (const auto mismatch = check_equivalence(nl, res.netlist, eq)) {
      std::cerr << "optimizer bug: " << mismatch->describe() << "\n";
      return 1;
    }
    std::cout << "optimized: " << compute_stats(res.netlist)
              << "  (ternary-equivalence verified)\n";
    nl = std::move(res.netlist);
  }

  const std::string path = args.get_or("out", "");
  if (path.empty()) {
    write_verilog(std::cout, nl);
  } else {
    std::ofstream f(path);
    if (!f) {
      std::cerr << "cannot open " << path << "\n";
      return 1;
    }
    write_verilog(f, nl);
    std::cout << "wrote " << path << "\n";
  }
  return 0;
} catch (const mcsn::CliError& e) {
  std::cerr << "export_rtl: " << e.what()
            << "\nusage: example_export_rtl [--bits B] [--network NAME]"
               " [--no-opt] [--out FILE]\n";
  return 2;
}
