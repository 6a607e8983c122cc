// Tests for the CompiledProgram IR verifier (netlist/verify_ir.hpp).
//
// Positive direction: every catalog network, elaborated under several
// builders and compiled under every CompileOptions combination, must pass
// both the structural checks and the netlist replay — including the
// programs actually held by each lane backend's executor and by
// BatchEvaluator. Negative direction: a seeded mutation suite perturbs a
// known-good IrImage one invariant at a time and demands the verifier
// reject each mutant with that invariant's own diagnostic token, proving
// the checks are independent (a verifier that catches everything as
// "level-structure" would pass a weaker test).

#include "mcsn/netlist/verify_ir.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mcsn/ckt/sort2.hpp"
#include "mcsn/netlist/compile.hpp"
#include "mcsn/nets/catalog.hpp"
#include "mcsn/nets/elaborate.hpp"

namespace mcsn {
namespace {

const CompileOptions kModes[] = {
    CompileOptions{},
    CompileOptions{.levelize = false},
    CompileOptions{.eliminate_dead = false},
    CompileOptions{.retain_all_nodes = true},
};

TEST(VerifyIr, AllCatalogNetworksVerifyUnderEveryCompileMode) {
  for (const ComparatorNetwork& net : paper_networks()) {
    for (const std::size_t bits : {1u, 4u, 8u}) {
      const Netlist nl = elaborate_network(net, bits, sort2_builder(),
                                           net.name() + "_verify");
      for (const CompileOptions& opt : kModes) {
        const CompiledProgram prog = CompiledProgram::compile(nl, opt);
        const Status s = verify_ir(prog, verify_options_for(opt));
        EXPECT_TRUE(s.ok()) << net.name() << " bits=" << bits << ": "
                            << s.to_string();
        const Status r = verify_netlist_replay(prog, nl);
        EXPECT_TRUE(r.ok()) << net.name() << " bits=" << bits << ": "
                            << r.to_string();
      }
    }
  }
}

TEST(VerifyIr, GeneratorFamiliesAndAllBuildersVerify) {
  const struct {
    const char* name;
    Sort2Builder builder;
  } builders[] = {
      {"mc", sort2_builder()},
      {"naive", sort2_naive_trees_builder()},
      {"date17", sort2_date17_style_builder()},
      {"bincomp", bincomp_builder()},
  };
  for (const auto& b : builders) {
    for (const ComparatorNetwork& net :
         {batcher_odd_even(6), odd_even_merger(4), odd_even_transposition(5),
          insertion_network(5)}) {
      const Netlist nl = elaborate_network(net, 4, b.builder);
      const CompiledProgram prog = CompiledProgram::compile(nl);
      const Status s = verify_ir(prog);
      EXPECT_TRUE(s.ok()) << b.name << "/" << net.name() << ": "
                          << s.to_string();
      EXPECT_TRUE(verify_netlist_replay(prog, nl).ok())
          << b.name << "/" << net.name();
    }
  }
}

// The program each lane backend actually executes is the program the
// verifier blesses: construct every executor flavor and verify the IR it
// holds. The backends share CompiledProgram, so this pins the claim that
// "verified at compile()" covers 64-lane, 256-lane, and batch execution
// alike.
TEST(VerifyIr, EveryLaneBackendExecutesAVerifiedProgram) {
  const Netlist nl = elaborate_network(optimal_9(), 8, sort2_builder());
  const CompiledProgram prog = CompiledProgram::compile(nl);

  const CompiledExecutor<Packed64Backend> packed64(prog);
  EXPECT_TRUE(verify_ir(packed64.program()).ok());

  const CompiledExecutor<Packed256Backend> packed256(prog);
  EXPECT_TRUE(verify_ir(packed256.program()).ok());

  const BatchEvaluator batch(nl);
  EXPECT_TRUE(verify_ir(batch.program()).ok());
}

// A program can hold no ops at all: outputs wired straight to inputs or
// constants, or through inverters, which lower to rail swaps. Its empty
// stream is a levelized schedule of zero levels.
TEST(VerifyIr, ProgramsWithoutOpsVerify) {
  Netlist nl("no_ops");
  const NodeId a = nl.add_input("a");
  nl.mark_output(a, "a");
  nl.mark_output(nl.inv(nl.inv(nl.inv(a))), "not_a");
  nl.mark_output(nl.inv(nl.constant(true)), "zero");
  for (const CompileOptions& opt : kModes) {
    const CompiledProgram prog = CompiledProgram::compile(nl, opt);
    if (!opt.retain_all_nodes) {
      EXPECT_EQ(prog.live_gate_count(), 0u);
    }
    const Status s = verify_ir(prog, verify_options_for(opt));
    EXPECT_TRUE(s.ok()) << s.to_string();
    const Status r = verify_netlist_replay(prog, nl);
    EXPECT_TRUE(r.ok()) << r.to_string();
  }
}

TEST(VerifyIr, OptionsMapping) {
  // retain_all_nodes keeps dead nodes: reachability must be off.
  EXPECT_FALSE(
      verify_options_for(CompileOptions{.retain_all_nodes = true})
          .require_reachable);
  EXPECT_FALSE(
      verify_options_for(CompileOptions{.eliminate_dead = false})
          .require_reachable);
  EXPECT_TRUE(verify_options_for(CompileOptions{}).require_reachable);
  EXPECT_FALSE(
      verify_options_for(CompileOptions{.levelize = false}).require_levelized);
}

// ---------------------------------------------------------------------------
// Mutation suite: one mutator per invariant class, each caught with its
// own diagnostic token. Ops address rails, so a slot s is written as the
// rail 2 * s.

constexpr std::uint32_t rail_of_slot(std::size_t slot) {
  return static_cast<std::uint32_t>(2 * slot);
}

/// Appends an and2 op on a fresh slot that reads output 0 and feeds
/// nothing, at the end of the last level and the last form run.
void append_orphan_op(IrImage& m) {
  CompiledOp op;
  op.form = RailForm::and2;
  op.out = rail_of_slot(m.slot_count);
  op.in = {m.output_rails[0], m.output_rails[0], 0};
  m.slot_count += 1;
  m.ops.push_back(op);
  m.level_offsets.back() += 1;
  m.form_runs.back().end += 1;
}

class VerifyIrMutation : public ::testing::Test {
 protected:
  void SetUp() override {
    nl_ = elaborate_network(optimal_4(), 4, sort2_builder(), "mutation_seed");
    clean_ = ir_image_of(CompiledProgram::compile(nl_));
    creation_ = ir_image_of(CompiledProgram::compile(nl_, kCreationOrder));
    ASSERT_TRUE(verify_ir(clean_).ok());
    ASSERT_TRUE(verify_ir(creation_, kCreationChecks).ok());
    ASSERT_GE(clean_.ops.size(), 2u);
    ASSERT_GE(clean_.level_offsets.size(), 3u);
    ASSERT_GE(clean_.level_offsets[1], 2u);  // level 0 holds >= 2 ops
    // The MC seed lowers to and2 ops only: one form run.
    ASSERT_EQ(clean_.form_runs.size(), 1u);
  }

  /// Asserts the mutated image fails verification and the diagnostic
  /// carries `token` — the class-specific tag, not just any error.
  static void expect_rejected(const IrImage& mutated, const std::string& token,
                              const VerifyIrOptions& opt = {}) {
    const Status s = verify_ir(mutated, opt);
    ASSERT_FALSE(s.ok()) << "mutation not caught (want token '" << token
                         << "')";
    EXPECT_NE(s.message().find(token), std::string::npos)
        << "wrong diagnostic for token '" << token << "': " << s.to_string();
  }

  /// The first op of a creation-order program writes over a primary input
  /// it does not read itself; a later op still reads that input.
  [[nodiscard]] IrImage clobber_mutant() const {
    IrImage m = creation_;
    const CompiledOp& first = m.ops[0];
    for (const std::uint32_t s : m.input_slots) {
      if (s != first.in[0] >> 1 && s != first.in[1] >> 1) {
        m.ops[0].out = rail_of_slot(s);
        break;
      }
    }
    return m;
  }

  static constexpr CompileOptions kCreationOrder{.levelize = false};
  static constexpr VerifyIrOptions kCreationChecks =
      verify_options_for(kCreationOrder);

  Netlist nl_;
  IrImage clean_;
  IrImage creation_;
};

TEST_F(VerifyIrMutation, OperandFromSameLevelIsCaught) {
  // Class: wrong-level operand. The last op of level 0 reads its stream
  // predecessor's output — fine by stream order, illegal by levelization.
  IrImage m = clean_;
  const std::size_t last = m.level_offsets[1] - 1;
  ASSERT_GE(last, 1u);
  m.ops[last].in[0] = m.ops[last - 1].out;
  expect_rejected(m, "operand-level");
}

TEST_F(VerifyIrMutation, SameLevelWriteConflictIsCaught) {
  // Class: two ops of one level share a destination slot.
  IrImage m = clean_;
  m.ops[1].out = m.ops[0].out;
  expect_rejected(m, "write-conflict");
}

TEST_F(VerifyIrMutation, ClobberIsCaught) {
  // Class: slot reuse too early — a value overwritten before its reader
  // runs. Structure proves it without the netlist.
  const IrImage m = clobber_mutant();
  ASSERT_NE(m.ops[0].out, creation_.ops[0].out);
  expect_rejected(m, "clobber", kCreationChecks);
  // The replay sees the same bug as a wrong output function.
  const Status r = verify_netlist_replay(m, nl_);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("netlist-replay"), std::string::npos)
      << r.to_string();
}

TEST_F(VerifyIrMutation, ConstantOverwriteIsCaught) {
  // Class: a constant materialized into a slot an op later rewrites —
  // constants are set once per executor, so after the first run every
  // reader of the constant would see the op's value instead.
  IrImage m = clean_;
  m.const_inits.push_back({m.ops.back().out >> 1, Trit::one});
  expect_rejected(m, "const-overwrite");
}

TEST_F(VerifyIrMutation, DanglingReadIsCaught) {
  // Class: read of a slot nothing ever writes.
  IrImage m = clean_;
  m.slot_count += 1;
  m.ops[0].in[0] = rail_of_slot(m.slot_count - 1);
  expect_rejected(m, "dangling-read");
}

TEST_F(VerifyIrMutation, ReadBeforeWriteIsCaught) {
  // Class: operand order — the slot IS written, but later than the
  // reader. The highest slot is first handed out to a gate, so no input
  // or constant ever fills it before op 0 runs.
  IrImage m = clean_;
  m.ops[0].in[0] = rail_of_slot(m.slot_count - 1);
  expect_rejected(m, "");  // any rejection...
  const Status s = verify_ir(m);
  // ...but specifically as an ordering/level violation, not a dangling read.
  EXPECT_EQ(s.message().find("dangling-read"), std::string::npos)
      << s.to_string();
}

TEST_F(VerifyIrMutation, OrphanOpIsCaught) {
  // Class: op no output transitively depends on (dead-node elimination
  // promised none survive).
  IrImage m = clean_;
  append_orphan_op(m);
  expect_rejected(m, "orphan-op");

  // The same mutant is LEGAL when the program was compiled without
  // dead-node elimination — reachability is opt.-gated.
  EXPECT_TRUE(verify_ir(m, VerifyIrOptions{.require_reachable = false}).ok());
}

TEST_F(VerifyIrMutation, OutOfBoundsSlotIsCaught) {
  IrImage m = clean_;
  m.ops.back().out = rail_of_slot(m.slot_count + 7);
  expect_rejected(m, "slot-bounds");
}

TEST_F(VerifyIrMutation, BadFormIsCaught) {
  // Class: an op outside the three rail forms, or a form run that
  // dispatches an op to another form's kernel.
  IrImage unknown = clean_;
  unknown.ops[0].form = static_cast<RailForm>(kRailFormCount);
  expect_rejected(unknown, "bad-op");
  IrImage misrouted = clean_;
  misrouted.form_runs[0].form = RailForm::mux2;
  expect_rejected(misrouted, "bad-op");
  IrImage short_runs = clean_;
  short_runs.form_runs[0].end -= 1;
  expect_rejected(short_runs, "bad-op");
}

TEST_F(VerifyIrMutation, CorruptLevelOffsetsAreCaught) {
  IrImage m = clean_;
  m.level_offsets.back() += 1;
  expect_rejected(m, "level-structure");
}

TEST_F(VerifyIrMutation, UnwrittenOutputIsCaught) {
  IrImage m = clean_;
  m.slot_count += 1;
  m.output_rails[0] = rail_of_slot(m.slot_count - 1);
  expect_rejected(m, "unwritten-output");
}

TEST_F(VerifyIrMutation, DistinctDiagnosticsPerClass) {
  // The acceptance bar: every invariant class caught with a DIFFERENT
  // diagnostic. Collect the messages the suite above relies on.
  std::vector<std::string> tokens;

  IrImage wrong_level = clean_;
  const std::size_t last = wrong_level.level_offsets[1] - 1;
  wrong_level.ops[last].in[0] = wrong_level.ops[last - 1].out;
  tokens.push_back(verify_ir(wrong_level).message());

  IrImage conflict = clean_;
  conflict.ops[1].out = conflict.ops[0].out;
  tokens.push_back(verify_ir(conflict).message());

  tokens.push_back(verify_ir(clobber_mutant(), kCreationChecks).message());

  IrImage constant = clean_;
  constant.const_inits.push_back({constant.ops.back().out >> 1, Trit::one});
  tokens.push_back(verify_ir(constant).message());

  IrImage dangling = clean_;
  dangling.slot_count += 1;
  dangling.ops[0].in[0] = rail_of_slot(dangling.slot_count - 1);
  tokens.push_back(verify_ir(dangling).message());

  IrImage orphan = clean_;
  append_orphan_op(orphan);
  tokens.push_back(verify_ir(orphan).message());

  IrImage bad_form = clean_;
  bad_form.ops[0].form = static_cast<RailForm>(kRailFormCount);
  tokens.push_back(verify_ir(bad_form).message());

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    ASSERT_FALSE(tokens[i].empty());
    for (std::size_t j = i + 1; j < tokens.size(); ++j) {
      EXPECT_NE(tokens[i], tokens[j])
          << "classes " << i << " and " << j << " share a diagnostic";
    }
  }
}

// ---------------------------------------------------------------------------
// Netlist replay: what structure cannot see.

TEST(VerifyIrReplay, SwappedMuxDataPinsFailOnlyTheReplay) {
  // bincomp's max/min selection is built from mux2 cells. Swapping one
  // mux's two data pins keeps every read, write and level intact — the
  // program is structurally perfect and computes the wrong function.
  const Netlist nl =
      elaborate_network(optimal_4(), 4, bincomp_builder(), "replay_seed");
  const CompiledProgram prog = CompiledProgram::compile(nl);
  ASSERT_TRUE(verify_netlist_replay(prog, nl).ok());

  IrImage m = ir_image_of(prog);
  bool swapped = false;
  for (CompiledOp& op : m.ops) {
    if (op.form == RailForm::mux2 && op.in[0] != op.in[1]) {
      std::swap(op.in[0], op.in[1]);
      swapped = true;
      break;
    }
  }
  ASSERT_TRUE(swapped) << "seed has no mux2 with distinct data pins";
  EXPECT_TRUE(verify_ir(m).ok()) << verify_ir(m).to_string();
  const Status r = verify_netlist_replay(m, nl);
  ASSERT_FALSE(r.ok()) << "swapped mux2 pins not caught by the replay";
  EXPECT_NE(r.message().find("netlist-replay"), std::string::npos)
      << r.to_string();
}

/// Flips the polarity of operand 0 of the op that last writes output 0's
/// slot, so the flip reaches an output.
void flip_output_op_polarity(IrImage& m) {
  const std::uint32_t slot = m.output_rails[0] >> 1;
  for (std::size_t k = m.ops.size(); k-- > 0;) {
    if (m.ops[k].out >> 1 == slot) {
      m.ops[k].in[0] ^= 1u;
      return;
    }
  }
  FAIL() << "no op writes output 0";
}

TEST(VerifyIrReplay, FlippedOperandPolarityFailsOnlyTheReplay) {
  // Reading an operand's other rail reads its complement: the slot, the
  // level and every read and write stay the same, so the structure is
  // intact while the op computes a different function.
  const Netlist nl =
      elaborate_network(optimal_4(), 4, sort2_builder(), "polarity_seed");
  for (const CompileOptions& opt : kModes) {
    const CompiledProgram prog = CompiledProgram::compile(nl, opt);
    IrImage m = ir_image_of(prog);
    flip_output_op_polarity(m);
    const Status s = verify_ir(m, verify_options_for(opt));
    EXPECT_TRUE(s.ok()) << s.to_string();
    const Status r = verify_netlist_replay(m, nl);
    ASSERT_FALSE(r.ok()) << "flipped operand polarity not caught";
    EXPECT_NE(r.message().find("netlist-replay"), std::string::npos)
        << r.to_string();
  }
}

}  // namespace
}  // namespace mcsn
