// Formal equivalence CLI: reads two structural Verilog netlists (such as
// those written by export_rtl or by hand) and proves or refutes their
// equivalence — under full ternary (metastability) semantics by default,
// or classical Boolean semantics with --semantics boolean. A "mini-Formality" for the
// MC design style: two netlists a synthesis tool considers equal may well
// differ under metastability, and this tool finds the witness.
//
//   $ ./export_rtl --bits 8 --out a.v
//   $ ./export_rtl --bits 8 --no-opt --out b.v
//   $ ./formal_check a.v b.v
//   PROVED ternary-equivalent (...)

#include <fstream>
#include <iostream>
#include <sstream>

#include "mcsn/mcsn.hpp"

namespace {

std::optional<std::string> slurp(const std::string& path) {
  std::ifstream f(path);
  if (!f) return std::nullopt;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

int usage() {
  std::cerr << "usage: formal_check [--semantics boolean|ternary] a.v b.v\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace mcsn;
  const CliArgs args(argc, argv, {"semantics"});
  if (args.positional().size() != 2) return usage();
  Netlist circuits[2];
  for (int i = 0; i < 2; ++i) {
    const std::string& path = args.positional()[static_cast<std::size_t>(i)];
    const auto text = slurp(path);
    if (!text) {
      std::cerr << "cannot read " << path << "\n";
      return 2;
    }
    VerilogError err;
    auto nl = parse_verilog(*text, &err);
    if (!nl) {
      std::cerr << path << ":" << err.line << ": " << err.message << "\n";
      return 2;
    }
    circuits[i] = std::move(*nl);
  }
  if (circuits[0].inputs().size() != circuits[1].inputs().size() ||
      circuits[0].outputs().size() != circuits[1].outputs().size()) {
    std::cerr << "interface mismatch: " << circuits[0].inputs().size() << "/"
              << circuits[0].outputs().size() << " vs "
              << circuits[1].inputs().size() << "/"
              << circuits[1].outputs().size() << "\n";
    return 2;
  }

  FormalEquivOptions opt;
  const bool boolean_mode = args.get_or("semantics", "ternary") == "boolean";
  if (boolean_mode) opt.semantics = EquivSemantics::boolean_only;
  const char* mode = boolean_mode ? "Boolean" : "ternary";
  try {
    const FormalEquivResult res =
        check_equivalence_formal(circuits[0], circuits[1], opt);
    if (res.equivalent) {
      std::cout << "PROVED " << mode << "-equivalent ("
                << circuits[0].inputs().size() << " inputs, "
                << res.bdd_nodes << " BDD nodes)\n";
      return 0;
    }
    std::cout << "NOT " << mode << "-equivalent; witness input: "
              << res.witness->str() << "\n";
    std::cout << "  " << circuits[0].name() << " -> "
              << evaluate(circuits[0], *res.witness) << "\n";
    std::cout << "  " << circuits[1].name() << " -> "
              << evaluate(circuits[1], *res.witness) << "\n";
    return 1;
  } catch (const std::length_error&) {
    std::cerr << "BDD node limit exceeded; try --semantics boolean or a better "
                 "input order\n";
    return 2;
  }
} catch (const mcsn::CliError& e) {
  std::cerr << "formal_check: " << e.what() << "\n";
  return usage();
}
