// Network elaboration: gate-count compositionality (Table 8 "gates" = CE
// count x 2-sort gates), end-to-end MC sorting of valid-string vectors
// w.r.t. the Table 2 total order, and stamping one 2-sort cell per
// comparator against one builder call per comparator.

#include "mcsn/nets/elaborate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "mcsn/core/valid.hpp"
#include "mcsn/nets/catalog.hpp"
#include "mcsn/nets/compose/compose.hpp"
#include "mcsn/netlist/eval.hpp"
#include "mcsn/util/rng.hpp"

namespace mcsn {
namespace {

// Applies the elaborated netlist to a vector of valid strings.
std::vector<Word> run_network(const Netlist& nl, const std::vector<Word>& in,
                              std::size_t bits) {
  std::vector<Trit> flat;
  for (const Word& w : in) {
    flat.insert(flat.end(), w.begin(), w.end());
  }
  const Word out = evaluate(nl, flat);
  std::vector<Word> res(in.size());
  for (std::size_t c = 0; c < in.size(); ++c) {
    res[c] = out.sub(c * bits, (c + 1) * bits - 1);
  }
  return res;
}

TEST(Elaborate, GateCountIsComparatorTimesSort2) {
  for (const std::size_t bits : {2u, 4u, 8u, 16u}) {
    const ComparatorNetwork net = optimal_4();
    const Netlist nl = elaborate_network(net, bits, sort2_builder());
    EXPECT_EQ(nl.gate_count(), net.size() * sort2_gate_count(bits));
    EXPECT_TRUE(nl.validate());
    EXPECT_TRUE(nl.mc_safe());
  }
}

TEST(Elaborate, FourSortExhaustiveSmall) {
  // All 4-vectors of 2-bit valid strings: 7^4 = 2401 cases.
  const std::size_t bits = 2;
  const Netlist nl = elaborate_network(optimal_4(), bits, sort2_builder());
  const std::vector<Word> all = all_valid_strings(bits);
  Evaluator ev(nl);
  for (std::size_t a = 0; a < all.size(); ++a) {
    for (std::size_t b = 0; b < all.size(); ++b) {
      for (std::size_t c = 0; c < all.size(); ++c) {
        for (std::size_t d = 0; d < all.size(); ++d) {
          const std::vector<Word> in = {all[a], all[b], all[c], all[d]};
          const std::vector<Word> out = run_network(nl, in, bits);
          std::vector<std::size_t> ranks = {a, b, c, d};
          std::sort(ranks.begin(), ranks.end());
          for (int i = 0; i < 4; ++i) {
            ASSERT_EQ(out[static_cast<std::size_t>(i)],
                      all[ranks[static_cast<std::size_t>(i)]])
                << a << " " << b << " " << c << " " << d;
          }
        }
      }
    }
  }
}

class ElaborateNetworks
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(ElaborateNetworks, RandomValidVectorsSortByRank) {
  const int which = std::get<0>(GetParam());
  const std::size_t bits = std::get<1>(GetParam());
  const ComparatorNetwork net = paper_networks()[static_cast<std::size_t>(which)];
  const Netlist nl = elaborate_network(net, bits, sort2_builder());
  Xoshiro256 rng(1234 + static_cast<std::uint64_t>(which) + bits);
  const int channels = net.channels();
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<Word> in;
    std::vector<std::uint64_t> ranks;
    for (int c = 0; c < channels; ++c) {
      const std::uint64_t r = rng.below(valid_count(bits));
      in.push_back(valid_from_rank(r, bits));
      ranks.push_back(r);
    }
    const std::vector<Word> out = run_network(nl, in, bits);
    std::sort(ranks.begin(), ranks.end());
    for (int c = 0; c < channels; ++c) {
      ASSERT_EQ(out[static_cast<std::size_t>(c)],
                valid_from_rank(ranks[static_cast<std::size_t>(c)], bits))
          << net.name() << " B=" << bits << " trial=" << trial;
    }
  }
}

std::string network_param_name(
    const ::testing::TestParamInfo<std::tuple<int, std::size_t>>& info) {
  static const char* const names[] = {"sort4", "sort7", "sort10size",
                                      "sort10depth"};
  return std::string(names[std::get<0>(info.param)]) + "_b" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    PaperNetworks, ElaborateNetworks,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(std::size_t{2}, std::size_t{4},
                                         std::size_t{8})),
    network_param_name);

TEST(Elaborate, BaselineBuildersProduceSameFunction) {
  const std::size_t bits = 3;
  const ComparatorNetwork net = optimal_4();
  const Netlist a = elaborate_network(net, bits, sort2_builder());
  const Netlist b = elaborate_network(net, bits, sort2_naive_trees_builder());
  const Netlist c = elaborate_network(net, bits, sort2_date17_style_builder());
  Xoshiro256 rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Word> in;
    for (int ch = 0; ch < 4; ++ch) {
      in.push_back(valid_from_rank(rng.below(valid_count(bits)), bits));
    }
    const auto oa = run_network(a, in, bits);
    const auto ob = run_network(b, in, bits);
    const auto oc = run_network(c, in, bits);
    EXPECT_EQ(oa, ob);
    EXPECT_EQ(oa, oc);
  }
}

TEST(Elaborate, BincompSortsStableVectors) {
  const std::size_t bits = 4;
  const Netlist nl = elaborate_network(optimal_4(), bits, bincomp_builder());
  EXPECT_FALSE(nl.mc_safe());
  Xoshiro256 rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Word> in;
    std::vector<std::uint64_t> vals;
    for (int c = 0; c < 4; ++c) {
      const std::uint64_t v = rng.below(16);
      in.push_back(Word::from_uint(v, bits));
      vals.push_back(v);
    }
    const std::vector<Word> out = run_network(nl, in, bits);
    std::sort(vals.begin(), vals.end());
    for (int c = 0; c < 4; ++c) {
      ASSERT_EQ(out[static_cast<std::size_t>(c)].to_uint(),
                vals[static_cast<std::size_t>(c)]);
    }
  }
}

// The reference elaboration: one builder call per comparator, in network
// layer order, into a netlist that grows as it goes.
Netlist elaborate_per_comparator(const ComparatorNetwork& net,
                                 std::size_t bits,
                                 const Sort2Builder& builder) {
  Netlist nl(net.name() + "_b" + std::to_string(bits));
  std::vector<Bus> channel(static_cast<std::size_t>(net.channels()));
  for (std::size_t c = 0; c < channel.size(); ++c) {
    channel[c] = nl.add_input_bus("ch" + std::to_string(c), bits);
  }
  for (const auto& layer : net.layers()) {
    for (const Comparator& cmp : layer) {
      Bus& lo = channel[static_cast<std::size_t>(cmp.lo)];
      Bus& hi = channel[static_cast<std::size_t>(cmp.hi)];
      const BusPair sorted = builder(nl, lo, hi);
      lo = sorted.min;
      hi = sorted.max;
    }
  }
  for (std::size_t c = 0; c < channel.size(); ++c) {
    nl.mark_output_bus(channel[c], "out" + std::to_string(c));
  }
  return nl;
}

// Test-only cell, not a sorter: it emits a constant (read by a gate and
// driving an output) and passes an input bit through unchanged, the two
// cell shapes no shipped builder produces.
BusPair constant_and_passthrough_cell(Netlist& nl, const Bus& g,
                                      const Bus& h) {
  const NodeId zero = nl.constant(false);
  BusPair out;
  for (std::size_t i = 0; i < g.size(); ++i) {
    out.max.push_back(i == 0 ? g[0] : nl.or2(g[i], h[i]));
    out.min.push_back(nl.ao21(g[i], h[i], zero));
  }
  if (g.size() > 1) out.min.back() = nl.constant(true);
  return out;
}

struct NamedBuilder {
  std::string name;
  Sort2Builder builder;
};

TEST(Elaborate, StampedElaborationMatchesPerComparatorBuilds) {
  // Every builder tool_mcsverify sweeps, plus the test-only cell.
  std::vector<NamedBuilder> builders;
  for (const PpcTopology topo : kAllPpcTopologies) {
    builders.push_back(
        {"mc-" + std::string(ppc_topology_name(topo)),
         sort2_builder(Sort2Options{topo, OpStyle::simple_gates})});
  }
  builders.push_back(
      {"mc-aoi", sort2_builder(Sort2Options{PpcTopology::ladner_fischer,
                                            OpStyle::aoi_cells})});
  builders.push_back({"naive-trees", sort2_naive_trees_builder()});
  builders.push_back({"date17", sort2_date17_style_builder()});
  builders.push_back({"bincomp", bincomp_builder()});
  builders.push_back({"constant-passthrough", constant_and_passthrough_cell});

  const std::vector<ComparatorNetwork> nets = {
      optimal_2(),        optimal_3(),
      optimal_4(),        optimal_5(),
      optimal_6(),        optimal_7(),
      optimal_8(),        optimal_9(),
      size_optimal_10(),  depth_optimal_10(),
      composed_sort_network(17, /*prefer_depth=*/true),
      composed_sort_network(24, /*prefer_depth=*/true)};

  for (const ComparatorNetwork& net : nets) {
    for (const NamedBuilder& b : builders) {
      for (const std::size_t bits : {1u, 2u, 5u, 16u}) {
        SCOPED_TRACE(net.name() + "/" + b.name + "/b" + std::to_string(bits));
        const Netlist want = elaborate_per_comparator(net, bits, b.builder);
        const Netlist got = elaborate_network(net, bits, b.builder);
        EXPECT_EQ(got.name(), want.name());
        ASSERT_EQ(got.node_count(), want.node_count());
        for (NodeId id = 0; id < got.node_count(); ++id) {
          const GateNode& x = got.node(id);
          const GateNode& y = want.node(id);
          ASSERT_TRUE(x.kind == y.kind && x.in == y.in) << "node " << id;
        }
        ASSERT_EQ(got.inputs(), want.inputs());
        for (std::size_t i = 0; i < got.inputs().size(); ++i) {
          ASSERT_EQ(got.input_name(i), want.input_name(i));
        }
        ASSERT_EQ(got.outputs().size(), want.outputs().size());
        for (std::size_t o = 0; o < got.outputs().size(); ++o) {
          ASSERT_EQ(got.outputs()[o].node, want.outputs()[o].node);
          ASSERT_EQ(got.outputs()[o].name, want.outputs()[o].name);
        }
      }
    }
  }
}

// A cell that adds primary inputs or outputs cannot be stamped: its
// instances would each need inputs or outputs of their own. Nor can one
// whose output buses are narrower than its inputs.
TEST(Elaborate, MalformedCellsAreRefused) {
  const Sort2Builder adds_input = [](Netlist& nl, const Bus& g,
                                     const Bus& h) {
    const NodeId extra = nl.add_input("extra");
    return BusPair{{nl.or2(g[0], extra)}, {h[0]}};
  };
  const Sort2Builder adds_output = [](Netlist& nl, const Bus& g,
                                      const Bus& h) {
    nl.mark_output(g[0], "probe");
    return BusPair{{g[0]}, {h[0]}};
  };
  EXPECT_THROW((void)elaborate_network(optimal_4(), 1, adds_input),
               std::invalid_argument);
  EXPECT_THROW((void)elaborate_network(optimal_4(), 1, adds_output),
               std::invalid_argument);
  const Sort2Builder narrow = [](Netlist& nl, const Bus& g, const Bus& h) {
    return BusPair{{nl.or2(g[0], h[0])}, {nl.and2(g[0], h[0])}};
  };
  EXPECT_THROW((void)elaborate_network(optimal_4(), 2, narrow),
               std::invalid_argument);
}

// The node count is inputs + comparators x cell nodes, known before the
// node array exists. Past NodeId's range the elaboration is refused with
// std::length_error up front: here 2 inputs + 65,537 comparators x a
// 65,536-gate cell = 4,295,032,834 nodes, 65,539 more than 2^32 - 1.
TEST(Elaborate, NodeCountBeyondNodeIdIsALengthError) {
  const std::vector<std::vector<Comparator>> layers(65537, {Comparator{0, 1}});
  const ComparatorNetwork net("long", 2, layers);
  const Sort2Builder chain = [](Netlist& nl, const Bus& g, const Bus& h) {
    NodeId x = nl.or2(g[0], h[0]);
    for (int i = 1; i < 65536; ++i) x = nl.inv(x);
    return BusPair{{x}, {h[0]}};
  };
  EXPECT_THROW((void)elaborate_network(net, 1, chain), std::length_error);
}

}  // namespace
}  // namespace mcsn
