// FSM trace: steps the Gray-code comparison FSM (paper Fig. 2) bit by bit on
// two inputs and prints the state trajectory and per-bit outputs (Table 4),
// including the metastable-closure states for marginal inputs.
//
//   $ ./fsm_trace 0M10 0110
//   $ ./fsm_trace              (uses the paper's example words)

#include <iostream>
#include <string>

#include "mcsn/mcsn.hpp"

namespace {

constexpr const char* kUsage =
    "usage: fsm_trace <word> <word>   (equal-width over 0/1/M)\n";

}  // namespace

int main(int argc, char** argv) try {
  using namespace mcsn;
  const CliArgs args(argc, argv, {});

  std::string gs = "0M10";
  std::string hs = "0110";
  if (args.positional().size() >= 2) {
    gs = args.positional()[0];
    hs = args.positional()[1];
  }
  const auto g = Word::parse(gs);
  const auto h = Word::parse(hs);
  if (!g || !h || g->size() != h->size() || g->empty()) {
    std::cerr << kUsage;
    return 1;
  }
  if (!is_valid_string(*g) || !is_valid_string(*h)) {
    std::cerr << "note: inputs are not valid strings; the closure-FSM output "
                 "below is still defined but Theorem 4.3 does not apply.\n";
  }

  TextTable table({"i", "g_i h_i", "state before", "label", "out (max,min)",
                   "state after"});
  GrayCompareFsm fsm;
  Word mx(g->size()), mn(g->size());
  for (std::size_t i = 0; i < g->size(); ++i) {
    const TritPair before = fsm.state();
    const TritPair out = fsm.step((*g)[i], (*h)[i]);
    mx[i] = out.first;
    mn[i] = out.second;
    table.add_row({std::to_string(i + 1),
                   std::string{to_char((*g)[i]), to_char((*h)[i])},
                   before.str(), std::string(fsm_state_label(before)),
                   out.str(), fsm.state().str()});
  }
  std::cout << "g = " << *g << ", h = " << *h << "\n\n";
  table.print(std::cout);
  std::cout << "\nmax = " << mx << "\nmin = " << mn << "\n";

  if (is_valid_string(*g) && is_valid_string(*h)) {
    const auto [smax, smin] = sort2_spec_rank(*g, *h);
    std::cout << "spec: max = " << smax << ", min = " << smin << "  ("
              << ((smax == mx && smin == mn) ? "match" : "MISMATCH") << ")\n";
  }
  return 0;
} catch (const mcsn::CliError& e) {
  std::cerr << "fsm_trace: " << e.what() << "\n" << kUsage;
  return 2;
}
