// ROBDD package and formal equivalence checking (Boolean and ternary
// dual-rail semantics).

#include "mcsn/netlist/bdd.hpp"

#include <gtest/gtest.h>

#include "mcsn/ckt/ops.hpp"
#include "mcsn/ckt/sort2.hpp"
#include "mcsn/ckt/sort2_baselines.hpp"
#include "mcsn/netlist/equiv.hpp"
#include "mcsn/netlist/eval.hpp"
#include "mcsn/netlist/opt.hpp"
#include "mcsn/sorter.hpp"

namespace mcsn {
namespace {

TEST(Bdd, TerminalAndVariableBasics) {
  Bdd m(3);
  EXPECT_TRUE(m.is_tautology(Bdd::kTrue));
  EXPECT_TRUE(m.is_contradiction(Bdd::kFalse));
  const auto x = m.var(0);
  EXPECT_EQ(m.bdd_not(m.bdd_not(x)), x);          // canonicity
  EXPECT_EQ(m.bdd_and(x, m.bdd_not(x)), Bdd::kFalse);
  EXPECT_EQ(m.bdd_or(x, m.bdd_not(x)), Bdd::kTrue);
  EXPECT_EQ(m.bdd_and(x, x), x);
  EXPECT_EQ(m.nvar(1), m.bdd_not(m.var(1)));
}

TEST(Bdd, BooleanAlgebraLaws) {
  Bdd m(4);
  const auto a = m.var(0), b = m.var(1), c = m.var(2);
  // De Morgan.
  EXPECT_EQ(m.bdd_not(m.bdd_and(a, b)),
            m.bdd_or(m.bdd_not(a), m.bdd_not(b)));
  // Distributivity.
  EXPECT_EQ(m.bdd_and(a, m.bdd_or(b, c)),
            m.bdd_or(m.bdd_and(a, b), m.bdd_and(a, c)));
  // XOR identities.
  EXPECT_EQ(m.bdd_xor(a, a), Bdd::kFalse);
  EXPECT_EQ(m.bdd_xor(a, Bdd::kFalse), a);
  EXPECT_EQ(m.bdd_xnor(a, b), m.bdd_not(m.bdd_xor(a, b)));
}

TEST(Bdd, SatisfyOneFindsModel) {
  Bdd m(3);
  const auto f = m.bdd_and(m.var(0), m.bdd_or(m.nvar(1), m.var(2)));
  const auto assign = m.satisfy_one(f);
  ASSERT_TRUE(assign);
  // Evaluate f under the (completed) assignment manually.
  const bool a0 = (*assign)[0].value_or(false);
  const bool a1 = (*assign)[1].value_or(false);
  const bool a2 = (*assign)[2].value_or(false);
  EXPECT_TRUE(a0 && (!a1 || a2));
  EXPECT_FALSE(m.satisfy_one(Bdd::kFalse));
}

TEST(Bdd, SatCount) {
  Bdd m(3);
  EXPECT_DOUBLE_EQ(m.sat_count(Bdd::kTrue), 8.0);
  EXPECT_DOUBLE_EQ(m.sat_count(Bdd::kFalse), 0.0);
  EXPECT_DOUBLE_EQ(m.sat_count(m.var(0)), 4.0);
  EXPECT_DOUBLE_EQ(m.sat_count(m.bdd_and(m.var(0), m.var(2))), 2.0);
  EXPECT_DOUBLE_EQ(m.sat_count(m.bdd_xor(m.var(0), m.var(1))), 4.0);
  // Majority of three: 4 models.
  const auto a = m.var(0), b = m.var(1), c = m.var(2);
  const auto maj = m.bdd_or(m.bdd_or(m.bdd_and(a, b), m.bdd_and(a, c)),
                            m.bdd_and(b, c));
  EXPECT_DOUBLE_EQ(m.sat_count(maj), 4.0);
}

TEST(Bdd, NodeLimitThrows) {
  Bdd m(64, 64);  // absurdly small limit
  auto f = m.var(0);
  EXPECT_THROW(
      {
        for (int i = 1; i < 64; ++i) f = m.bdd_xor(f, m.var(i));
      },
      std::length_error);
}

// --- formal equivalence -----------------------------------------------------

std::vector<int> interleaved_order(std::size_t bits) {
  std::vector<int> order(2 * bits);
  for (std::size_t i = 0; i < bits; ++i) {
    order[i] = static_cast<int>(2 * i);
    order[bits + i] = static_cast<int>(2 * i + 1);
  }
  return order;
}

TEST(FormalEquiv, Sort2TopologiesFormallyTernaryEquivalent) {
  // A PROOF (not a sample) that the Ladner-Fischer and Kogge-Stone variants
  // implement the same ternary function at B=8 — all 3^16 ternary inputs.
  const std::size_t bits = 8;
  const Netlist a = make_sort2(bits);
  const Netlist b = make_sort2(bits, Sort2Options{PpcTopology::kogge_stone});
  FormalEquivOptions opt;
  opt.var_order = interleaved_order(bits);
  const FormalEquivResult res = check_equivalence_formal(a, b, opt);
  EXPECT_TRUE(res.equivalent) << res.witness->str();
  EXPECT_GT(res.bdd_nodes, 0u);
}

// The cell McSorter serves (kServedSort2, the serial prefix) is the
// paper's Ladner-Fischer 2-sort(B) as a ternary function, proven for
// every width up to 16.
TEST(FormalEquiv, ServedSerialSort2IsThePapersFunction) {
  for (std::size_t bits = 1; bits <= 16; ++bits) {
    FormalEquivOptions opt;
    opt.var_order = interleaved_order(bits);
    const FormalEquivResult res = check_equivalence_formal(
        make_sort2(bits), make_sort2(bits, kServedSort2), opt);
    EXPECT_TRUE(res.equivalent)
        << "B=" << bits << " " << (res.witness ? res.witness->str() : "");
  }
}

TEST(FormalEquiv, OptimizedSort2FormallyEquivalent) {
  const std::size_t bits = 8;
  const Netlist nl = make_sort2(bits);
  const OptResult res = optimize(nl);
  FormalEquivOptions opt;
  opt.var_order = interleaved_order(bits);
  EXPECT_TRUE(check_equivalence_formal(nl, res.netlist, opt).equivalent);
}

TEST(FormalEquiv, Date17BaselineFormallyEquivalentToSort2) {
  const std::size_t bits = 6;
  const Netlist a = make_sort2(bits);
  const Netlist b = make_sort2_date17_style(bits);
  FormalEquivOptions opt;
  opt.var_order = interleaved_order(bits);
  const FormalEquivResult res = check_equivalence_formal(a, b, opt);
  EXPECT_TRUE(res.equivalent) << res.witness->str();
}

TEST(FormalEquiv, FindsTernaryWitnessForMuxes) {
  Netlist sop("sop"), mc("mc");
  for (Netlist* nl : {&sop, &mc}) {
    const NodeId a = nl->add_input("a");
    const NodeId b = nl->add_input("b");
    const NodeId s = nl->add_input("s");
    if (nl == &sop) {
      nl->mark_output(nl->or2(nl->and2(a, nl->inv(s)), nl->and2(b, s)), "f");
    } else {
      nl->mark_output(cmux(*nl, a, b, s), "f");
    }
  }
  FormalEquivOptions opt;
  const FormalEquivResult res = check_equivalence_formal(sop, mc, opt);
  ASSERT_FALSE(res.equivalent);
  ASSERT_TRUE(res.witness);
  // The witness must actually distinguish the circuits.
  EXPECT_FALSE(evaluate(sop, *res.witness) == evaluate(mc, *res.witness));
  // ... and they are Boolean-equivalent, so the witness must contain an M.
  FormalEquivOptions boolean;
  boolean.semantics = EquivSemantics::boolean_only;
  EXPECT_TRUE(check_equivalence_formal(sop, mc, boolean).equivalent);
  EXPECT_GT(res.witness->meta_count(), 0u);
}

TEST(FormalEquiv, BooleanWitnessForDifferentFunctions) {
  Netlist a("a"), b("b");
  for (Netlist* nl : {&a, &b}) {
    const NodeId x = nl->add_input("x");
    const NodeId y = nl->add_input("y");
    nl->mark_output(nl == &a ? nl->and2(x, y) : nl->or2(x, y), "f");
  }
  FormalEquivOptions opt;
  opt.semantics = EquivSemantics::boolean_only;
  const FormalEquivResult res = check_equivalence_formal(a, b, opt);
  ASSERT_FALSE(res.equivalent);
  ASSERT_TRUE(res.witness);
  EXPECT_TRUE(res.witness->is_stable());
  EXPECT_FALSE(evaluate(a, *res.witness) == evaluate(b, *res.witness));
}

// Cross-validation: formal verdicts agree with the exhaustive simulator on
// every operator block pairing we care about.
TEST(FormalEquiv, AgreesWithExhaustiveChecker) {
  const Netlist blocks[] = {make_sort2(3),
                            make_sort2(3, Sort2Options{PpcTopology::serial}),
                            make_sort2_naive_trees(3)};
  for (const Netlist& x : blocks) {
    for (const Netlist& y : blocks) {
      const bool formal =
          check_equivalence_formal(x, y).equivalent;
      const bool sim = !check_equivalence(x, y).has_value();
      EXPECT_EQ(formal, sim) << x.name() << " vs " << y.name();
    }
  }
}

// The AOI-fused style is formally ternary-equivalent to the simple style.
TEST(FormalEquiv, AoiStyleFormallyEquivalent) {
  const std::size_t bits = 8;
  Sort2Options aoi;
  aoi.style = OpStyle::aoi_cells;
  FormalEquivOptions opt;
  opt.var_order = interleaved_order(bits);
  EXPECT_TRUE(
      check_equivalence_formal(make_sort2(bits), make_sort2(bits, aoi), opt)
          .equivalent);
}

}  // namespace
}  // namespace mcsn
