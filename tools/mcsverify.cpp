// tool_mcsverify — sweeps the IR verifier (netlist/verify_ir.hpp) over
// every network the repo can build: the paper catalog, the generator
// families, and composed/PPC elaborations under every 2-sort builder and
// PPC topology, each compiled once into the one program form compile()
// produces. Next to them it compiles the 2-sort cells: make_sort2(B) at
// every swept width under every MC Sort2Options (each PPC topology, with
// simple gates and with AOI cells). McSorter compiles none of them: it
// runs the serial cell as a fixed scan (ckt/sort2.hpp), whose netlist is
// the mc-serial cell here. Every program gets both passes: the structural
// checks and the exact replay against the netlist it was compiled from.
//
//   tool_mcsverify                 full sweep (CI default)
//   tool_mcsverify --quick         catalog networks and 2-sort cells at
//                                  4 bits only
//   tool_mcsverify --bits 1,8      override the bit widths swept
//   tool_mcsverify --filter ppc    only configurations whose name matches
//   tool_mcsverify --mutate        also run the seeded mutation self-test
//                                  (each invariant class must be caught
//                                  with its own diagnostic)
//   tool_mcsverify --verbose       print every configuration checked
//
// Exit status 0 iff at least one program was checked, every compiled
// program verifies and, with --mutate, every seeded mutation is rejected.
// This is the "check the construction, don't trust it" gate the
// SAT-certificate line of work argues for, run over the whole serving
// catalog in CI.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "mcsn/ckt/sort2.hpp"
#include "mcsn/netlist/compile.hpp"
#include "mcsn/netlist/verify_ir.hpp"
#include "mcsn/nets/catalog.hpp"
#include "mcsn/nets/compose/compose.hpp"
#include "mcsn/nets/elaborate.hpp"

namespace {

using namespace mcsn;

struct NamedNetwork {
  std::string name;
  ComparatorNetwork net;
};

struct NamedBuilder {
  std::string name;
  Sort2Builder builder;
};

std::vector<NamedNetwork> sweep_networks(bool quick) {
  std::vector<NamedNetwork> nets;
  nets.push_back({"optimal_4", optimal_4()});
  nets.push_back({"optimal_7", optimal_7()});
  nets.push_back({"optimal_9", optimal_9()});
  nets.push_back({"size_optimal_10", size_optimal_10()});
  nets.push_back({"depth_optimal_10", depth_optimal_10()});
  if (quick) return nets;
  for (const int n : {2, 3, 5, 8, 13}) {
    nets.push_back({"batcher_" + std::to_string(n), batcher_odd_even(n)});
  }
  nets.push_back({"merger_8", odd_even_merger(8)});
  nets.push_back({"transposition_6", odd_even_transposition(6)});
  nets.push_back({"insertion_6", insertion_network(6)});
  // The arbitrary-shape composer families the serving stack builds on
  // demand (nets/compose/): recursive odd-even composition, the PPC
  // construction under both realizable tree cones, and an uneven merger.
  for (const int n : {12, 17, 24}) {
    nets.push_back({"composed_" + std::to_string(n),
                    composed_sort_network(n, /*prefer_depth=*/true)});
  }
  nets.push_back({"composed_11s", composed_sort_network(11, false)});
  nets.push_back(
      {"ppc_lf_13", ppc_sort_network(13, PpcTopology::ladner_fischer)});
  nets.push_back({"ppc_sklansky_11",
                  ppc_sort_network(11, PpcTopology::sklansky)});
  nets.push_back({"oemerge_5_3", odd_even_merge_network(5, 3)});
  return nets;
}

std::vector<NamedBuilder> sweep_builders(bool quick) {
  std::vector<NamedBuilder> builders;
  // The paper's MC 2-sort under every PPC topology — the composed/PPC
  // construction path the serving stack ships.
  for (const PpcTopology topo : kAllPpcTopologies) {
    builders.push_back(
        {"mc-" + std::string(ppc_topology_name(topo)),
         sort2_builder(Sort2Options{topo, OpStyle::simple_gates})});
    if (quick) break;
  }
  if (quick) return builders;
  builders.push_back(
      {"mc-aoi", sort2_builder(Sort2Options{PpcTopology::ladner_fischer,
                                            OpStyle::aoi_cells})});
  builders.push_back({"naive-trees", sort2_naive_trees_builder()});
  builders.push_back({"date17", sort2_date17_style_builder()});
  builders.push_back({"bincomp", bincomp_builder()});
  return builders;
}

/// Every MC 2-sort option: each PPC topology, with simple gates and with
/// AOI cells.
std::vector<std::pair<std::string, Sort2Options>> cell_options() {
  std::vector<std::pair<std::string, Sort2Options>> options;
  for (const PpcTopology topo : kAllPpcTopologies) {
    const std::string topo_name(ppc_topology_name(topo));
    options.push_back({"mc-" + topo_name, {topo, OpStyle::simple_gates}});
    options.push_back({"mc-aoi-" + topo_name, {topo, OpStyle::aoi_cells}});
  }
  return options;
}

/// Ops address rails: slot s is the rail 2 * s.
std::uint32_t rail(std::size_t slot) {
  return static_cast<std::uint32_t>(2 * slot);
}

/// One seeded mutation per invariant class: perturb a known-good program
/// and demand the verifier rejects it with the class's own diagnostic.
/// Mirrors the gtest suite (tests/verify_ir_test.cpp) so the CI sweep
/// binary is self-negative-testing too.
int run_mutation_selftest() {
  const Netlist nl =
      elaborate_network(optimal_4(), 4, sort2_builder(), "mutate_seed");
  // bincomp selects with mux2 cells, whose data pins the replay test swaps.
  const Netlist mux_nl =
      elaborate_network(optimal_4(), 4, bincomp_builder(), "mutate_mux_seed");

  enum class Seed { mc, mux };
  const auto netlist_of = [&](Seed seed) -> const Netlist& {
    return seed == Seed::mux ? mux_nl : nl;
  };
  const auto seed_image = [&](Seed seed) {
    return ir_image_of(CompiledProgram::compile(netlist_of(seed)));
  };
  // The check a mutant must fail: the structural pass, or (replay
  // classes) the netlist replay.
  const auto check = [&](Seed seed, bool replay, const IrImage& ir) {
    if (replay) return verify_netlist_replay(ir, netlist_of(seed));
    return verify_ir(ir);
  };
  for (const Seed seed : {Seed::mc, Seed::mux}) {
    for (const bool replay : {false, true}) {
      if (Status s = check(seed, replay, seed_image(seed)); !s.ok()) {
        std::fprintf(stderr,
                     "mutation self-test seed failed verification: %s\n",
                     s.to_string().c_str());
        return 1;
      }
    }
  }

  struct Mutation {
    const char* name;
    const char* want_token;
    Seed seed;
    bool replay;  // must pass the structural checks and fail the replay
    void (*apply)(IrImage&);
  };
  const Mutation mutations[] = {
      {"out-of-bounds slot", "slot-bounds", Seed::mc, false,
       [](IrImage& ir) { ir.ops.back().out = rail(ir.slot_count + 7); }},
      {"corrupt level offsets", "level-structure", Seed::mc, false,
       [](IrImage& ir) { ir.level_offsets.back() += 1; }},
      {"op outside the rail forms", "bad-op", Seed::mc, false,
       [](IrImage& ir) {
         ir.ops[0].form = static_cast<RailForm>(kRailFormCount);
       }},
      {"two writes in one level", "write-conflict", Seed::mc, false,
       [](IrImage& ir) { ir.ops[1].out = ir.ops[0].out; }},
      {"clobbered live value", "clobber", Seed::mc, false,
       [](IrImage& ir) {
         // Op 0 writes over an input that no level-0 op reads; a later
         // level still reads it.
         const auto reads = [&ir](std::size_t begin, std::size_t end,
                                  std::uint32_t slot) {
           for (std::size_t k = begin; k < end; ++k) {
             const CompiledOp& op = ir.ops[k];
             for (int j = 0; j < rail_form_arity(op.form); ++j) {
               if (op.in[static_cast<std::size_t>(j)] >> 1 == slot) {
                 return true;
               }
             }
           }
           return false;
         };
         const std::size_t level1 = ir.level_offsets[1];
         for (const std::uint32_t s : ir.input_slots) {
           if (!reads(0, level1, s) && reads(level1, ir.ops.size(), s)) {
             ir.ops[0].out = rail(s);
             return;
           }
         }
       }},
      {"overwritten constant", "const-overwrite", Seed::mc, false,
       [](IrImage& ir) {
         ir.const_inits.push_back({ir.ops.back().out >> 1, Trit::one});
       }},
      {"dangling operand read", "dangling-read", Seed::mc, false,
       [](IrImage& ir) {
         ir.slot_count += 1;  // a slot nobody writes
         ir.ops[0].in[0] = rail(ir.slot_count - 1);
       }},
      {"operand from the same level", "operand-level", Seed::mc, false,
       [](IrImage& ir) {
         // Make the last op of level 0 read its neighbor's output: same
         // level, earlier in the stream — passes stream order, breaks
         // levelization.
         const std::size_t last = ir.level_offsets[1] - 1;
         ir.ops[last].in[0] = ir.ops[last - 1].out;
       }},
      {"orphan op", "orphan-op", Seed::mc, false,
       [](IrImage& ir) {
         CompiledOp op;
         op.form = RailForm::and2;
         op.out = rail(ir.slot_count);
         op.in = {ir.output_rails[0], ir.output_rails[0], 0};
         ir.slot_count += 1;
         ir.ops.push_back(op);
         ir.level_offsets.back() += 1;
         ir.form_runs.back().end += 1;  // the MC seed is one and2 run
       }},
      {"swapped mux2 data pins", "netlist-replay", Seed::mux, true,
       [](IrImage& ir) {
         for (CompiledOp& op : ir.ops) {
           if (op.form == RailForm::mux2 && op.in[0] != op.in[1]) {
             std::swap(op.in[0], op.in[1]);
             return;
           }
         }
       }},
      {"flipped operand polarity", "netlist-replay", Seed::mc, true,
       [](IrImage& ir) {
         // Operand 0 of the op that last writes output 0's slot reads the
         // other rail of the same slot: structurally identical, and the
         // complement reaches an output.
         const std::uint32_t slot = ir.output_rails[0] >> 1;
         for (std::size_t k = ir.ops.size(); k-- > 0;) {
           if (ir.ops[k].out >> 1 == slot) {
             ir.ops[k].in[0] ^= 1u;
             return;
           }
         }
       }},
  };

  int failures = 0;
  for (const Mutation& m : mutations) {
    IrImage mutated = seed_image(m.seed);
    m.apply(mutated);
    if (m.replay) {
      if (Status s = check(m.seed, false, mutated); !s.ok()) {
        std::fprintf(stderr,
                     "mutation '%s' should be structurally valid: %s\n",
                     m.name, s.to_string().c_str());
        ++failures;
        continue;
      }
    }
    const Status s = check(m.seed, m.replay, mutated);
    if (s.ok()) {
      std::fprintf(stderr, "MUTATION NOT CAUGHT: %s\n", m.name);
      ++failures;
    } else if (s.message().find(m.want_token) == std::string::npos) {
      std::fprintf(stderr,
                   "mutation '%s' caught with the wrong diagnostic: %s "
                   "(want token '%s')\n",
                   m.name, s.to_string().c_str(), m.want_token);
      ++failures;
    }
  }
  std::printf("mutation self-test: %zu invariant classes, %d escaped\n",
              std::size(mutations), failures);
  return failures == 0 ? 0 : 1;
}

std::vector<std::size_t> parse_bits_list(const char* arg) {
  std::vector<std::size_t> bits;
  const char* p = arg;
  while (*p != '\0') {
    char* end = nullptr;
    const unsigned long v = std::strtoul(p, &end, 10);
    if (end == p || v == 0) {
      std::fprintf(stderr, "bad --bits list: %s\n", arg);
      std::exit(2);
    }
    bits.push_back(static_cast<std::size_t>(v));
    p = (*end == ',') ? end + 1 : end;
  }
  return bits;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool verbose = false;
  bool mutate = false;
  std::string filter;
  std::vector<std::size_t> bits = {1, 2, 4, 8, 16};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--mutate") {
      mutate = true;
    } else if (arg == "--filter" && i + 1 < argc) {
      filter = argv[++i];
    } else if (arg == "--bits" && i + 1 < argc) {
      bits = parse_bits_list(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--verbose] [--mutate] "
                   "[--filter SUBSTR] [--bits B1,B2,...]\n",
                   argv[0]);
      return 2;
    }
  }
  if (quick) bits = {4};

  const std::vector<NamedNetwork> nets = sweep_networks(quick);
  const std::vector<NamedBuilder> builders = sweep_builders(quick);

  std::size_t checked = 0;
  std::size_t cells = 0;
  std::size_t failures = 0;
  // Compiles the netlist make_netlist() returns and runs both passes on
  // the program. Returns false when the filter skips `name`.
  const auto check = [&](const std::string& name, const auto& make_netlist) {
    if (!filter.empty() && name.find(filter) == std::string::npos) {
      return false;
    }
    const Netlist nl = make_netlist();
    const CompiledProgram prog = CompiledProgram::compile(nl);
    Status s = verify_ir(prog);
    if (s.ok()) s = verify_netlist_replay(prog, nl);
    ++checked;
    if (!s.ok()) {
      ++failures;
      std::fprintf(stderr, "FAIL %s: %s\n", name.c_str(),
                   s.to_string().c_str());
    } else if (verbose) {
      std::printf("ok   %s (%zu slots, %zu ops, %zu levels)\n", name.c_str(),
                  prog.slot_count(), prog.ops().size(), prog.level_count());
    }
    return true;
  };
  for (const NamedNetwork& net : nets) {
    for (const NamedBuilder& builder : builders) {
      for (const std::size_t b : bits) {
        check(net.name + "/" + builder.name + "/b" + std::to_string(b), [&] {
          return elaborate_network(net.net, b, builder.builder);
        });
      }
    }
  }
  for (const auto& [name, opt] : cell_options()) {
    for (const std::size_t b : bits) {
      if (check("cell/" + name + "/b" + std::to_string(b),
                [&] { return make_sort2(b, opt); })) {
        ++cells;
      }
    }
  }

  std::printf(
      "mcsverify: %zu compiled programs checked (%zu cells), %zu "
      "failed\n",
      checked, cells, failures);
  int rc = failures == 0 ? 0 : 1;
  if (checked == 0) {
    std::fprintf(stderr, "mcsverify: no program matched the sweep%s%s\n",
                 filter.empty() ? "" : " filter ", filter.c_str());
    rc = 1;
  }
  if (mutate && run_mutation_selftest() != 0) rc = 1;
  return rc;
}
