// Differential tests for the compiled, levelized dual-rail engine: every
// backend width (64-lane, 256-lane, BatchEvaluator, and Evaluator's lane-0
// replay) must be bit-identical to the legacy node-walking evaluator on all
// catalog networks and widths, including partial final lane groups and
// thread-sharded batches, and every cell kind's rail lowering must match
// the node walker on the full ternary input space.

#include "mcsn/netlist/compile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mcsn/netlist/eval.hpp"
#include "mcsn/nets/catalog.hpp"
#include "mcsn/nets/elaborate.hpp"
#include "mcsn/sorter.hpp"
#include "mcsn/util/rng.hpp"
#include "mcsn/util/thread_pool.hpp"

namespace mcsn {
namespace {

// Random ternary input vector (arbitrary trits, not just valid strings, to
// stress every gate path).
Word random_ternary(Xoshiro256& rng, std::size_t width) {
  Word w(width);
  for (std::size_t i = 0; i < width; ++i) {
    w[i] = trit_from_index(static_cast<int>(rng.below(3)));
  }
  return w;
}

// One input vector through a 64-lane executor, read back on lane 0.
Word run_lane0(CompiledExecutor<Packed64Backend>& exec,
               std::span<const Trit> in) {
  std::vector<PackedTrit> packed;
  for (const Trit t : in) packed.push_back(PackedTrit::splat(t));
  exec.run(packed);
  Word out(exec.program().output_count());
  for (std::size_t o = 0; o < out.size(); ++o) out[o] = exec.output_lane(o, 0);
  return out;
}

std::vector<Netlist> catalog_netlists(std::size_t bits) {
  std::vector<Netlist> nls;
  for (const ComparatorNetwork& net :
       {optimal_4(), optimal_7(), optimal_9(), size_optimal_10(),
        depth_optimal_10(), batcher_odd_even(6)}) {
    nls.push_back(elaborate_network(net, bits, sort2_builder(),
                                    net.name() + "_B" + std::to_string(bits)));
  }
  return nls;
}

// The heart of the differential suite: legacy node-walk vs the compiled
// 64-lane and 256-lane backends and Evaluator on the same corpus, every
// output lane.
TEST(Compile, AllBackendsMatchLegacyOnCatalogNetworks) {
  constexpr int kVectors = 300;  // > 256: exercises a partial wide group
  for (const std::size_t bits : {1u, 3u, 8u}) {
    for (const Netlist& nl : catalog_netlists(bits)) {
      const std::size_t width = nl.inputs().size();
      const std::size_t outs = nl.outputs().size();
      Xoshiro256 rng(bits * 1000 + nl.node_count());
      std::vector<Word> corpus;
      corpus.reserve(kVectors);
      for (int v = 0; v < kVectors; ++v) {
        corpus.push_back(random_ternary(rng, width));
      }

      // Legacy reference.
      NodeWalkEvaluator legacy(nl);
      std::vector<Word> want;
      want.reserve(kVectors);
      std::vector<Trit> in;
      Word out;
      for (const Word& w : corpus) {
        in.assign(w.begin(), w.end());
        legacy.run_outputs(in, out);
        want.push_back(out);
      }

      // Evaluator: one vector at a time on lane 0.
      Evaluator single(nl);
      for (int v = 0; v < kVectors; ++v) {
        in.assign(corpus[v].begin(), corpus[v].end());
        single.run_outputs(in, out);
        ASSERT_EQ(out, want[v]) << nl.name() << " evaluator v=" << v;
      }
      const CompiledProgram prog = CompiledProgram::compile(nl);

      // Compiled 64-lane and 256-lane, with partial final groups.
      auto check_packed = [&](auto backend_tag, const char* label) {
        using Backend = decltype(backend_tag);
        CompiledExecutor<Backend> exec(prog);
        std::vector<typename Backend::Value> pin(width);
        for (int base = 0; base < kVectors; base += Backend::kLanes) {
          const int active = std::min(Backend::kLanes, kVectors - base);
          for (std::size_t i = 0; i < width; ++i) {
            for (int lane = 0; lane < active; ++lane) {
              pin[i].set_lane(lane, corpus[base + lane][i]);
            }
          }
          exec.run(pin);
          for (int lane = 0; lane < active; ++lane) {
            for (std::size_t o = 0; o < outs; ++o) {
              ASSERT_EQ(exec.output_lane(o, lane), want[base + lane][o])
                  << nl.name() << " " << label << " v=" << base + lane
                  << " o=" << o;
            }
          }
        }
      };
      check_packed(Packed64Backend{}, "packed64");
      check_packed(Packed256Backend{}, "packed256");

      // BatchEvaluator over the whole corpus at once.
      const BatchEvaluator batch(nl);
      const std::vector<Word> got = batch.run(corpus);
      ASSERT_EQ(got.size(), want.size());
      for (int v = 0; v < kVectors; ++v) {
        ASSERT_EQ(got[v], want[v]) << nl.name() << " batch v=" << v;
      }
    }
  }
}

TEST(Compile, DeadNodeEliminationDropsUnobservableGates) {
  Netlist nl("dead_gates");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId live = nl.and2(a, b);
  // A whole dead cone, including a dead gate over the live one.
  const NodeId d1 = nl.xor2(a, b);
  const NodeId d2 = nl.or2(d1, live);
  nl.inv(d2);
  nl.mark_output(live, "o");

  const CompiledProgram dense = CompiledProgram::compile(nl);
  EXPECT_EQ(dense.live_gate_count(), 1u);
  EXPECT_EQ(nl.gate_count(), 4u);

  // Outputs agree with legacy on the full ternary input space.
  CompiledExecutor<Packed64Backend> exec(dense);
  for (const Trit ta : kAllTrits) {
    for (const Trit tb : kAllTrits) {
      const Trit want = evaluate(nl, Word{ta, tb})[0];
      const Trit in[2] = {ta, tb};
      EXPECT_EQ(run_lane0(exec, in)[0], want);
    }
  }
}

TEST(Compile, DeadInputsGetNoSlotButStayAddressable) {
  Netlist nl("dead_input");
  const NodeId a = nl.add_input("a");
  nl.add_input("unused");
  const NodeId c = nl.constant(true);
  nl.mark_output(nl.and2(a, c), "o");

  const CompiledProgram prog = CompiledProgram::compile(nl);
  ASSERT_EQ(prog.input_count(), 2u);
  EXPECT_NE(prog.input_slots()[0], CompiledProgram::kNoSlot);
  EXPECT_EQ(prog.input_slots()[1], CompiledProgram::kNoSlot);
  ASSERT_EQ(prog.const_inits().size(), 1u);
  EXPECT_EQ(prog.const_inits()[0].value, Trit::one);

  // The executor still takes both inputs and ignores the dead one.
  CompiledExecutor<Packed64Backend> exec(prog);
  const Trit in[2] = {Trit::meta, Trit::one};
  EXPECT_EQ(run_lane0(exec, in)[0], Trit::meta);
}

TEST(Compile, LevelizedScheduleIsTopologicalAndSliced) {
  const Netlist nl =
      elaborate_network(optimal_7(), 4, sort2_builder(), "sched_check");
  const CompiledProgram prog = CompiledProgram::compile(nl);

  ASSERT_GT(prog.level_count(), 0u);
  std::vector<char> written(prog.slot_count(), 0);
  std::vector<char> pinned(prog.slot_count(), 0);
  for (const std::uint32_t s : prog.input_slots()) {
    if (s != CompiledProgram::kNoSlot) written[s] = 1;
  }
  for (const CompiledProgram::ConstInit& c : prog.const_inits()) {
    written[c.slot] = 1;
    pinned[c.slot] = 1;
  }
  std::size_t seen = 0;
  std::vector<std::size_t> written_in(prog.slot_count(), prog.level_count());
  for (std::size_t l = 0; l < prog.level_count(); ++l) {
    const std::span<const CompiledOp> level = prog.level_ops(l);
    // Slots are reused, but ops inside one level must stay independent:
    // no two write the same slot, and none reads a slot the level writes.
    // Ops address rails; a rail's slot is rail / 2.
    for (const CompiledOp& op : level) {
      const std::uint32_t out = op.out >> 1;
      EXPECT_NE(written_in[out], l)
          << "level " << l << " writes slot " << out << " twice";
      EXPECT_FALSE(pinned[out]) << "level " << l << " overwrites a constant";
      written_in[out] = l;
    }
    for (const CompiledOp& op : level) {
      const int arity = rail_form_arity(op.form);
      for (int j = 0; j < arity; ++j) {
        const std::uint32_t s = op.in[static_cast<std::size_t>(j)] >> 1;
        EXPECT_TRUE(written[s]) << "level " << l << " reads a slot not yet "
                                   "written";
        EXPECT_NE(written_in[s], l)
            << "level " << l << " reads slot " << s << ", which it writes";
      }
    }
    for (const CompiledOp& op : level) written[op.out >> 1] = 1;
    seen += level.size();
  }
  EXPECT_EQ(seen, prog.ops().size()) << "level slices must partition the ops";
}

// Dense programs hold live width, not one slot per gate: a fall-back to
// per-node numbering would give 10x8 over 5,000 slots and composed 64x16
// over 220,000. The ratio is taken against the netlist's gates:
// inverters are gates but lower to no op.
TEST(Compile, DenseProgramsAreSizedByLiveWidth) {
  const struct {
    int channels;
    std::size_t bits;
    std::size_t max_slots;
  } shapes[] = {{10, 8, 600}, {64, 16, 8000}};
  for (const auto& shape : shapes) {
    const McSorter sorter(shape.channels, shape.bits);
    const CompiledProgram prog = CompiledProgram::compile(sorter.netlist());
    SCOPED_TRACE(std::to_string(shape.channels) + "x" +
                 std::to_string(shape.bits));
    const std::size_t gates = sorter.netlist().gate_count();
    EXPECT_LE(prog.slot_count(), shape.max_slots);
    EXPECT_LT(prog.slot_count(), gates / 10);
  }
}

// Every cell kind's rail lowering against the node walker, over the whole
// ternary input space. Each pin is driven from a primary input, a constant,
// or an inverter chain of length 1 or 2 over an input; the gate, an
// inverter over it and every pin source are outputs. Both lane widths must
// agree. This is what proves the lowering table's identities; the netlist
// replay only proves that a program follows them.
TEST(Compile, EveryCellKindLoweringMatchesNodeWalkOnAllTernaryInputs) {
  enum class Pin { input, const0, const1, inv1, inv2 };
  constexpr Pin kPins[] = {Pin::input, Pin::const0, Pin::const1, Pin::inv1,
                           Pin::inv2};
  int kinds = 0;
  for (int k = 0; k < kCellKindCount; ++k) {
    const auto kind = static_cast<CellKind>(k);
    if (!is_gate(kind)) continue;
    ++kinds;
    const int arity = cell_arity(kind);
    int combos = 1;
    for (int j = 0; j < arity; ++j) combos *= 5;
    for (int combo = 0; combo < combos; ++combo) {
      Netlist nl(std::string(cell_name(kind)));
      std::array<NodeId, 3> pins{};
      for (int j = 0, c = combo; j < arity; ++j, c /= 5) {
        constexpr const char* kInputNames[] = {"a", "b", "c"};
        const NodeId x = nl.add_input(kInputNames[j]);
        switch (kPins[c % 5]) {
          case Pin::input: pins[j] = x; break;
          case Pin::const0: pins[j] = nl.constant(false); break;
          case Pin::const1: pins[j] = nl.constant(true); break;
          case Pin::inv1: pins[j] = nl.inv(x); break;
          case Pin::inv2: pins[j] = nl.inv(nl.inv(x)); break;
        }
      }
      const NodeId g = nl.add_gate(kind, pins[0], pins[1], pins[2]);
      nl.mark_output(g, "g");
      nl.mark_output(nl.inv(g), "not_g");
      for (int j = 0; j < arity; ++j) {
        nl.mark_output(pins[j], "pin" + std::to_string(j));
      }
      SCOPED_TRACE(std::string(cell_name(kind)) + " pins " +
                   std::to_string(combo));

      const std::size_t width = nl.inputs().size();
      std::size_t vectors = 1;
      for (std::size_t i = 0; i < width; ++i) vectors *= 3;
      NodeWalkEvaluator legacy(nl);
      std::vector<Word> corpus;
      std::vector<Word> want;
      std::vector<Trit> in(width);
      Word out;
      for (std::size_t v = 0; v < vectors; ++v) {
        Word w(width);
        for (std::size_t i = 0, r = v; i < width; ++i, r /= 3) {
          w[i] = trit_from_index(static_cast<int>(r % 3));
        }
        in.assign(w.begin(), w.end());
        legacy.run_outputs(in, out);
        corpus.push_back(w);
        want.push_back(out);
      }
      const CompiledProgram prog = CompiledProgram::compile(nl);
      const auto check = [&](auto backend_tag, const char* label) {
        using Backend = decltype(backend_tag);
        CompiledExecutor<Backend> exec(prog);
        std::vector<typename Backend::Value> packed(width);
        for (std::size_t v = 0; v < vectors; ++v) {
          for (std::size_t i = 0; i < width; ++i) {
            packed[i].set_lane(static_cast<int>(v), corpus[v][i]);
          }
        }
        exec.run(packed);
        for (std::size_t v = 0; v < vectors; ++v) {
          for (std::size_t o = 0; o < want[v].size(); ++o) {
            ASSERT_EQ(exec.output_lane(o, static_cast<int>(v)), want[v][o])
                << label << " v=" << v << " o=" << o;
          }
        }
      };
      check(Packed64Backend{}, "packed64");
      check(Packed256Backend{}, "packed256");
    }
  }
  EXPECT_EQ(kinds, kCellKindCount - 3);  // every kind but input/const0/const1
}

// The paper's MC circuits use INV, AND2 and OR2 only, so a sorter's
// program is all and2 ops in one form run, with no op left for any
// inverter. The exact counts pin the served programs: the inverters
// vanish, nothing else is merged, and a change to the schedule or the slot
// assignment shows here as a changed level or slot count.
TEST(Compile, McSorterProgramsAreOneAnd2Run) {
  const struct {
    int channels;
    std::size_t bits;
    std::size_t ops;
    std::size_t levels;
    std::size_t slots;
  } shapes[] = {
      {10, 8, 3074, 45, 379},  // 29 comparators x 106-op serial cells
      {24, 8, 13462, 60, 1122},
      {64, 16, 127062, 105, 5734},  // composed
  };
  for (const auto& shape : shapes) {
    SCOPED_TRACE(std::to_string(shape.channels) + "x" +
                 std::to_string(shape.bits));
    const McSorter sorter(shape.channels, shape.bits);
    const Netlist nl = sorter.netlist();
    const CompiledProgram prog = CompiledProgram::compile(nl);
    ASSERT_EQ(prog.form_runs().size(), 1u);
    EXPECT_EQ(prog.form_runs()[0].form, RailForm::and2);
    EXPECT_EQ(prog.form_runs()[0].end, prog.live_gate_count());
    std::size_t inverters = 0;
    std::size_t gates = 0;
    for (const GateNode& g : nl.nodes()) {
      if (g.kind == CellKind::inv) ++inverters;
      if (is_gate(g.kind)) ++gates;
    }
    EXPECT_EQ(prog.live_gate_count(), gates - inverters);
    EXPECT_EQ(prog.live_gate_count(), shape.ops);
    EXPECT_EQ(prog.level_count(), shape.levels);
    EXPECT_EQ(prog.slot_count(), shape.slots);
  }
}

// Wrong-sized input is rejected with std::invalid_argument, never turned
// into wrong output or an out-of-bounds access.
TEST(Compile, BatchRunRejectsWordsOfTheWrongWidth) {
  const McSorter sorter(4, 3);
  const BatchEvaluator batch(sorter.netlist());
  ASSERT_EQ(batch.input_width(), 12u);
  const std::vector<Word> words = {Word(11), Word(12)};
  EXPECT_THROW((void)batch.run(words), std::invalid_argument);
  const std::vector<Word> longer = {Word(12), Word(13)};
  EXPECT_THROW((void)batch.run(longer), std::invalid_argument);
}

TEST(Compile, RunFlatRejectsPartialVectorsAndShortOutputs) {
  const McSorter sorter(4, 3);
  const BatchEvaluator batch(sorter.netlist());
  const std::size_t width = batch.input_width();
  const std::size_t outs = batch.output_width();
  // One and a half input vectors: rejected, not rounded down to one.
  const std::vector<Trit> partial(width + width / 2, Trit::zero);
  std::vector<Trit> one_row(outs);
  EXPECT_THROW(batch.run_flat(partial, one_row), std::invalid_argument);
  // Two vectors into a one-row span (its buffer has room for two, so a
  // missing check shows as a wrong result, not as memory corruption).
  const std::vector<Trit> two(2 * width, Trit::zero);
  std::vector<Trit> buffer(2 * outs);
  EXPECT_THROW(batch.run_flat(two, std::span<Trit>(buffer).first(outs)),
               std::invalid_argument);
  EXPECT_NO_THROW(batch.run_flat(two, buffer));
}

TEST(Compile, ExecutorRejectsInputCountMismatch) {
  const McSorter sorter(4, 3);
  const CompiledProgram prog = CompiledProgram::compile(sorter.netlist());
  CompiledExecutor<Packed64Backend> exec(prog);
  const std::size_t width = prog.input_slots().size();
  const std::vector<PackedTrit> fewer(width - 1);
  EXPECT_THROW(exec.run(fewer), std::invalid_argument);
  const std::vector<PackedTrit> more(width + 1);
  EXPECT_THROW(exec.run(more), std::invalid_argument);
  const std::vector<PackedTrit> exact(width);
  EXPECT_NO_THROW(exec.run(exact));
}

// sort_batch_flat must agree, round by round, with the node walker on the
// elaborated netlist, which shares no pack, unpack or lane code with the
// engine. Shapes: the served-engine shapes of sorter_test plus four more,
// so that the round width hits every residue mod 8 (the unpack writes
// eight trits per step); round counts around every 64-lane word and the
// 256-lane group; random trits, so 0, 1 and M all appear. Every round is
// checked up to 24x8; on 64x16, the rounds at lanes 0, 63, 64, 127, 128,
// 191, 192 and 255 of each group.
TEST(Compile, SortBatchMatchesPerRoundSortAcrossLaneBoundaries) {
  constexpr std::pair<int, std::size_t> kShapes[] = {
      {1, 3},  {2, 1},  {3, 2}, {7, 5}, {10, 8}, {10, 16},
      {24, 8}, {64, 16}, {1, 1}, {4, 1}, {5, 1}, {7, 1}};
  constexpr std::size_t kRounds[] = {1,   63,  64,  65,  127, 128, 129,
                                     191, 192, 193, 255, 256, 257};
  constexpr std::size_t kBoundaryLanes[] = {0,   63,  64,  127,
                                            128, 191, 192, 255};
  Xoshiro256 rng(99);
  std::vector<bool> width_residues(8, false);
  for (const auto& [channels, bits] : kShapes) {
    const McSorter sorter(channels, bits);
    const Netlist nl = sorter.netlist();
    NodeWalkEvaluator reference(nl);
    const std::size_t width = sorter.shape().trits();
    width_residues[width % 8] = true;
    const bool every_round = width <= 24 * 8;
    Word want;
    for (const std::size_t rounds : kRounds) {
      std::vector<Trit> in(rounds * width);
      for (Trit& t : in) t = trit_from_index(static_cast<int>(rng.below(3)));
      std::vector<Trit> got(in.size());
      ASSERT_TRUE(sorter.sort_batch_flat(in, got).ok());
      for (std::size_t r = 0; r < rounds; ++r) {
        if (!every_round &&
            std::find(std::begin(kBoundaryLanes), std::end(kBoundaryLanes),
                      r % 256) == std::end(kBoundaryLanes)) {
          continue;
        }
        const std::span<const Trit> row(got.data() + r * width, width);
        reference.run_outputs(std::span(in).subspan(r * width, width), want);
        ASSERT_TRUE(std::equal(row.begin(), row.end(), want.begin(),
                               want.end()))
            << channels << "x" << bits << ", " << rounds << " rounds, r=" << r;
      }
    }
  }
  EXPECT_EQ(std::count(width_residues.begin(), width_residues.end(), true), 8);
}

// One 600-vector call spans three lane groups and shards them over the
// engine pool; per-group calls run serially on the caller. Both must agree.
TEST(Compile, ThreadShardedBatchMatchesSerial) {
  const Netlist nl =
      elaborate_network(optimal_9(), 4, sort2_builder(), "shard_check");
  Xoshiro256 rng(1234);
  std::vector<Word> corpus;
  for (int v = 0; v < 600; ++v) {
    corpus.push_back(random_ternary(rng, nl.inputs().size()));
  }
  const BatchEvaluator be(nl);
  std::vector<Word> serial;
  for (std::size_t base = 0; base < corpus.size(); base += 256) {
    const std::size_t count = std::min<std::size_t>(256, corpus.size() - base);
    const std::vector<Word> group =
        be.run(std::span<const Word>(corpus).subspan(base, count));
    serial.insert(serial.end(), group.begin(), group.end());
  }
  EXPECT_EQ(be.run(corpus), serial);
}

// run() never constructs a thread per call: the first multi-group call in
// the process starts the engine pool (at most hardware_parallelism() - 1
// threads, none if an earlier test started it), and every later call, on
// any evaluator, reuses it. Observed through the process-wide spawn counter.
TEST(Compile, BatchRunConstructsZeroThreadsPerCall) {
  const Netlist nl =
      elaborate_network(optimal_7(), 4, sort2_builder(), "pool_reuse");
  Xoshiro256 rng(4321);
  std::vector<Word> corpus;
  for (int v = 0; v < 600; ++v) {  // 3 lane groups => sharding engages
    corpus.push_back(random_ternary(rng, nl.inputs().size()));
  }

  const std::uint64_t before = ThreadPool::threads_started();
  const BatchEvaluator be(nl);
  const std::vector<Word> first = be.run(corpus);
  EXPECT_LE(ThreadPool::threads_started() - before,
            ThreadPool::hardware_parallelism() - 1);

  const std::uint64_t spawned = ThreadPool::threads_started();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(be.run(corpus), first);
  }
  const BatchEvaluator be2(nl);
  EXPECT_EQ(be2.run(corpus), first);
  EXPECT_EQ(ThreadPool::threads_started(), spawned)
      << "BatchEvaluator::run must not construct threads per call";
}

// The served engine needs B >= 1 and a well-formed network: every
// comparator two distinct channels of the network. Its run_flat refuses
// an output buffer of the wrong size.
TEST(Compile, CellNetworkEvaluatorRefusesMalformedInput) {
  EXPECT_THROW(CellNetworkEvaluator(2, ComparatorNetwork("", 1, {{{0, 0}}})),
               std::invalid_argument);
  EXPECT_THROW(CellNetworkEvaluator(2, ComparatorNetwork("", 7, {{{3, 7}}})),
               std::invalid_argument);
  EXPECT_THROW(CellNetworkEvaluator(2, ComparatorNetwork("", 7, {{{-1, 3}}})),
               std::invalid_argument);
  EXPECT_THROW(CellNetworkEvaluator(0, optimal_7()), std::invalid_argument);

  const CellNetworkEvaluator engine(2, optimal_7());
  ASSERT_EQ(engine.network().layers(), optimal_7().layers());
  const std::vector<Trit> in(engine.width(), Trit::meta);
  std::vector<Trit> short_out(engine.width() - 1);
  EXPECT_THROW(engine.run_flat(in, short_out), std::invalid_argument);
}

TEST(Compile, SortValuesBatchRoundTrips) {
  McSorter sorter(4, 6);
  const std::vector<std::vector<std::uint64_t>> rounds = {
      {9, 3, 60, 17}, {0, 63, 1, 62}, {5, 5, 5, 5}};
  const auto got = sorter.sort_values_batch(rounds);
  ASSERT_EQ(got.size(), rounds.size());
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    EXPECT_EQ(got[r], sorter.sort_values(rounds[r]));
    for (std::size_t c = 1; c < got[r].size(); ++c) {
      EXPECT_LE(got[r][c - 1], got[r][c]);  // ascending, like sort_values
    }
  }
}

}  // namespace
}  // namespace mcsn
