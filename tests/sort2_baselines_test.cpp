// Baseline MC 2-sort circuits: functional correctness (same spec as the main
// construction), gate-count formulas, and asymptotic separation from the
// paper's circuit.

#include "mcsn/ckt/sort2_baselines.hpp"

#include <gtest/gtest.h>

#include "mcsn/core/spec.hpp"
#include "mcsn/core/valid.hpp"
#include "mcsn/netlist/eval.hpp"
#include "mcsn/netlist/timing.hpp"

namespace mcsn {
namespace {

void check_exhaustive(const Netlist& nl, std::size_t bits) {
  const std::vector<Word> all = all_valid_strings(bits);
  Evaluator ev(nl);
  Word out;
  std::vector<Trit> in;
  for (const Word& g : all) {
    for (const Word& h : all) {
      const Word joined = g + h;
      in.assign(joined.begin(), joined.end());
      ev.run_outputs(in, out);
      const auto [mx, mn] = sort2_spec_rank(g, h);
      ASSERT_EQ(out, mx + mn)
          << nl.name() << " g=" << g.str() << " h=" << h.str();
    }
  }
}

TEST(Sort2Baselines, NaiveTreesExhaustive) {
  for (std::size_t bits = 1; bits <= 6; ++bits) {
    const Netlist nl = make_sort2_naive_trees(bits);
    ASSERT_TRUE(nl.validate());
    EXPECT_TRUE(nl.mc_safe());
    check_exhaustive(nl, bits);
  }
}

TEST(Sort2Baselines, Date17StyleExhaustive) {
  for (std::size_t bits = 1; bits <= 6; ++bits) {
    const Netlist nl = make_sort2_date17_style(bits);
    ASSERT_TRUE(nl.validate());
    EXPECT_TRUE(nl.mc_safe());
    check_exhaustive(nl, bits);
  }
}

TEST(Sort2Baselines, GateCountFormulas) {
  for (std::size_t bits = 1; bits <= 20; ++bits) {
    EXPECT_EQ(make_sort2_naive_trees(bits).gate_count(),
              sort2_naive_trees_gate_count(bits));
    EXPECT_EQ(make_sort2_date17_style(bits).gate_count(),
              sort2_date17_style_gate_count(bits));
  }
}

// The naive baseline is Theta(B^2): quadratic growth visible by B=32.
TEST(Sort2Baselines, NaiveTreesAreQuadratic) {
  const std::size_t g16 = sort2_naive_trees_gate_count(16);
  const std::size_t g32 = sort2_naive_trees_gate_count(32);
  EXPECT_GT(g32, 3 * g16);  // quadratic: ~4x, linear would be ~2x
}

// The DATE'17-style baseline is Theta(B log B): super-linear but
// sub-quadratic, and asymptotically above the paper's O(B) circuit.
TEST(Sort2Baselines, Date17StyleIsBetweenLinearAndQuadratic) {
  const std::size_t g16 = sort2_date17_style_gate_count(16);
  const std::size_t g64 = sort2_date17_style_gate_count(64);
  EXPECT_GT(g64, 4 * g16);   // super-linear
  EXPECT_LT(g64, 16 * g16);  // sub-quadratic
  EXPECT_GT(g16, sort2_gate_count(16));
}

// Reconstruction quality vs the published DATE'17 numbers: within 35% at
// every width (documented substitution, see
// src/mcsn/ckt/sort2_baselines.hpp).
TEST(Sort2Baselines, Date17StyleTracksPublishedCounts) {
  const std::pair<std::size_t, std::size_t> published[] = {
      {2, 34}, {4, 160}, {8, 504}, {16, 1344}};
  for (const auto& [bits, gates] : published) {
    const double measured =
        static_cast<double>(sort2_date17_style_gate_count(bits));
    const double ref = static_cast<double>(gates);
    EXPECT_LT(measured / ref, 1.35) << "B=" << bits;
    EXPECT_GT(measured / ref, 0.40) << "B=" << bits;
  }
}

// Depth: both parallel baselines are logarithmic; serial-topology sort2 is
// linear (it is the unrolled FSM).
TEST(Sort2Baselines, DepthClasses) {
  EXPECT_LE(logic_depth(make_sort2_date17_style(16)), 3 * 4 + 4);
  EXPECT_LE(logic_depth(make_sort2_naive_trees(16)), 3 * 4 + 4);
  const Netlist serial = make_sort2(16, Sort2Options{PpcTopology::serial});
  EXPECT_GE(logic_depth(serial), 3 * 14);
}

}  // namespace
}  // namespace mcsn
