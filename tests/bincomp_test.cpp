// Bin-comp baseline: correct binary sorting on stable inputs, and an
// explicit demonstration that it does NOT contain metastability.

#include "mcsn/ckt/bincomp.hpp"

#include <gtest/gtest.h>

#include "mcsn/netlist/eval.hpp"
#include "mcsn/netlist/timing.hpp"

namespace mcsn {
namespace {

TEST(Bincomp, SortsAllStablePairsExhaustively) {
  for (const std::size_t bits : {1u, 2u, 4u, 6u}) {
    const Netlist nl = make_bincomp(bits);
    ASSERT_TRUE(nl.validate());
    Evaluator ev(nl);
    Word out;
    std::vector<Trit> in;
    const std::uint64_t n = std::uint64_t{1} << bits;
    for (std::uint64_t x = 0; x < n; ++x) {
      for (std::uint64_t y = 0; y < n; ++y) {
        const Word joined = Word::from_uint(x, bits) + Word::from_uint(y, bits);
        in.assign(joined.begin(), joined.end());
        ev.run_outputs(in, out);
        EXPECT_EQ(out.sub(0, bits - 1).to_uint(), std::max(x, y));
        EXPECT_EQ(out.sub(bits, 2 * bits - 1).to_uint(), std::min(x, y));
      }
    }
  }
}

TEST(Bincomp, UsesExtendedCellsAndIsNotMcSafe) {
  const Netlist nl = make_bincomp(4);
  EXPECT_FALSE(nl.mc_safe());
}

TEST(Bincomp, GateCountFormula) {
  for (const std::size_t bits : {1u, 2u, 4u, 8u, 16u}) {
    EXPECT_EQ(make_bincomp(bits).gate_count(), bincomp_gate_count(bits));
  }
  // Same order of magnitude as the paper's optimized Bin-comp (81 @ B=16);
  // ours is unoptimized, see src/mcsn/ckt/bincomp.hpp.
  EXPECT_EQ(bincomp_gate_count(16), 7u * 16 - 2);
}

// The headline failure mode the paper's circuits avoid: one marginal input
// bit can corrupt *many* output bits (here: an M on the MSB comparison
// spreads through the select into every mux).
TEST(Bincomp, MetastabilitySpreadsThroughSelect) {
  const std::size_t bits = 4;
  const Netlist nl = make_bincomp(bits);
  // a = 1000, b = 0111 (a > b). Make a's MSB metastable: a in {0000, 1000},
  // so "greater" is genuinely uncertain and every output bit diverges.
  const Word a = *Word::parse("M000");
  const Word b = *Word::parse("0111");
  const Word out = evaluate(nl, a + b);
  std::size_t meta_outputs = 0;
  for (const Trit t : out) meta_outputs += is_meta(t) ? 1 : 0;
  // All 8 output bits are poisoned (max and min disagree on every bit
  // between the two resolutions).
  EXPECT_EQ(meta_outputs, 2 * bits);
}

// Depth is logarithmic in B (tree comparator).
TEST(Bincomp, LogDepth) {
  EXPECT_LE(logic_depth(make_bincomp(16)), 12u);
  EXPECT_LT(logic_depth(make_bincomp(16)),
            logic_depth(make_bincomp(64)));
}

}  // namespace
}  // namespace mcsn
