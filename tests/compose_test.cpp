// The arbitrary-shape construction routes (nets/compose/): generalized
// odd-even merge, recursive composition over the optimal catalog leaves,
// the PPC construction, and the NetworkBuilder route/status surface.
//
// Verification ladder, weakest to strongest:
//   1. 0-1 principle exhaustively (n <= 16) and the merge variant for
//      every (p, q) run split up to 8+8;
//   2. comparator-level differential vs std::sort for every n up to 32;
//   3. gate-level differential vs the rank-sort reference on random valid
//      and marginal (metastable) measurements for every n up to 32;
//   4. every compiled program passes verify_ir and the netlist replay, and
//      the scalar / 64-lane / 256-lane / batch backends agree with the
//      node-walking evaluator, up to the served composed 64x16 shape.

#include "mcsn/nets/compose/compose.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "mcsn/core/valid.hpp"
#include "mcsn/netlist/compile.hpp"
#include "mcsn/netlist/eval.hpp"
#include "mcsn/netlist/verify_ir.hpp"
#include "mcsn/nets/catalog.hpp"
#include "mcsn/nets/compose/builder.hpp"
#include "mcsn/nets/elaborate.hpp"
#include "mcsn/sorter.hpp"
#include "mcsn/util/rng.hpp"

namespace mcsn {
namespace {

// --- construction routes: 0-1 principle ------------------------------------

TEST(Compose, CatalogLeavesAreOptimal) {
  // Size/depth pairs are the known optima (Knuth TAOCP vol. 3; Codish et
  // al. for the 9/10-channel results) — the composer's leaf quality is
  // exactly the paper-grade quality these pin down.
  const struct {
    ComparatorNetwork net;
    std::size_t size;
    std::size_t depth;
  } leaves[] = {
      {optimal_2(), 1, 1},  {optimal_3(), 3, 3},  {optimal_5(), 9, 5},
      {optimal_6(), 12, 5}, {optimal_8(), 19, 6},
  };
  for (const auto& leaf : leaves) {
    SCOPED_TRACE(leaf.net.name());
    EXPECT_TRUE(leaf.net.well_formed());
    EXPECT_EQ(leaf.net.size(), leaf.size);
    EXPECT_EQ(leaf.net.depth(), leaf.depth);
    EXPECT_TRUE(leaf.net.sorts_all_binary());
  }
}

TEST(Compose, OddEvenMergeMergesEveryRunSplit) {
  for (int p = 1; p <= 8; ++p) {
    for (int q = 1; q <= 8; ++q) {
      const ComparatorNetwork net = odd_even_merge_network(p, q);
      SCOPED_TRACE(net.name());
      ASSERT_EQ(net.channels(), p + q);
      ASSERT_TRUE(net.well_formed());
      // Merge variant of the 0-1 principle: exhaustive over every binary
      // input whose two runs are each sorted.
      ASSERT_TRUE(net.merges_sorted_halves(p));
    }
  }
  EXPECT_THROW(odd_even_merge_network(0, 3), std::invalid_argument);
  EXPECT_THROW(odd_even_merge_network(3, 0), std::invalid_argument);
}

TEST(Compose, AppendOddEvenMergeRelocatesByBase) {
  // The shared building block must emit the same comparators as the
  // standalone network, shifted by `base` — both routes rely on this.
  const ComparatorNetwork ref = odd_even_merge_network(3, 5);
  std::vector<Comparator> seq;
  append_odd_even_merge(seq, 7, 3, 5);
  std::vector<Comparator> shifted;
  for (const Comparator& c : ref.flattened()) {
    shifted.push_back({c.lo + 7, c.hi + 7});
  }
  // from_flat re-layers (ASAP), so compare as multisets, not sequences.
  const auto by_channels = [](const Comparator& a, const Comparator& b) {
    return std::pair{a.lo, a.hi} < std::pair{b.lo, b.hi};
  };
  std::sort(seq.begin(), seq.end(), by_channels);
  std::sort(shifted.begin(), shifted.end(), by_channels);
  ASSERT_EQ(seq, shifted);
}

// --- the allocation-free merge emits the list recursion's sequences --------

// Test-local reference: the odd-even merge recursion over explicit
// channel lists, each sublist allocated (the library indexes them as
// progressions).
void ref_merge(std::vector<Comparator>& seq, const std::vector<int>& a,
               const std::vector<int>& b) {
  if (a.empty() || b.empty()) return;
  if (a.size() == 1 && b.size() == 1) {
    seq.push_back({a[0], b[0]});
    return;
  }
  std::vector<int> a_odd, a_even, b_odd, b_even;
  for (std::size_t i = 0; i < a.size(); ++i) {
    (i % 2 == 0 ? a_odd : a_even).push_back(a[i]);
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    (i % 2 == 0 ? b_odd : b_even).push_back(b[i]);
  }
  ref_merge(seq, a_odd, b_odd);
  ref_merge(seq, a_even, b_even);
  std::vector<int> odd = a_odd;
  odd.insert(odd.end(), b_odd.begin(), b_odd.end());
  std::vector<int> even = a_even;
  even.insert(even.end(), b_even.begin(), b_even.end());
  for (std::size_t i = 0; i < std::min(even.size(), odd.size() - 1); ++i) {
    const int x = even[i];
    const int y = odd[i + 1];
    seq.push_back({std::min(x, y), std::max(x, y)});
  }
}

std::vector<int> channel_run(int base, int count) {
  std::vector<int> run(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) run[static_cast<std::size_t>(i)] = base + i;
  return run;
}

// The reference compositions' flat sequences for every n <= max_n,
// bottom up: catalog leaves for n <= 10, beyond that both halves (the
// right one shifted) followed by ref_merge of the two runs.
std::vector<std::vector<Comparator>> ref_composed(int max_n,
                                                  bool prefer_depth) {
  std::vector<std::vector<Comparator>> seqs(
      static_cast<std::size_t>(max_n) + 1);
  for (int n = 1; n <= max_n; ++n) {
    std::vector<Comparator>& seq = seqs[static_cast<std::size_t>(n)];
    if (n <= 10) {
      seq = composed_sort_network(n, prefer_depth).flattened();
      continue;
    }
    const int left = n / 2;
    seq = seqs[static_cast<std::size_t>(left)];
    for (const Comparator& c : seqs[static_cast<std::size_t>(n - left)]) {
      seq.push_back({c.lo + left, c.hi + left});
    }
    ref_merge(seq, channel_run(0, left), channel_run(left, n - left));
  }
  return seqs;
}

// Plain greedy ASAP layering, one push_back at a time.
std::vector<std::vector<Comparator>> ref_asap(
    int channels, const std::vector<Comparator>& seq) {
  std::vector<std::vector<Comparator>> layers;
  std::vector<std::size_t> busy_until(static_cast<std::size_t>(channels), 0);
  for (const Comparator& c : seq) {
    const std::size_t layer =
        std::max(busy_until[static_cast<std::size_t>(c.lo)],
                 busy_until[static_cast<std::size_t>(c.hi)]);
    if (layer == layers.size()) layers.emplace_back();
    layers[layer].push_back(c);
    busy_until[static_cast<std::size_t>(c.lo)] = layer + 1;
    busy_until[static_cast<std::size_t>(c.hi)] = layer + 1;
  }
  return layers;
}

TEST(Compose, MergeEmitsTheListRecursionsSequence) {
  for (int p = 1; p <= 48; ++p) {
    for (int q = 1; q <= 48; ++q) {
      std::vector<Comparator> got;
      append_odd_even_merge(got, 3, p, q);
      std::vector<Comparator> want;
      ref_merge(want, channel_run(3, p), channel_run(3 + p, q));
      ASSERT_EQ(got, want) << p << "+" << q;
    }
  }
}

TEST(Compose, ComposedEmitsTheListRecursionsSequenceTo512) {
  for (const bool prefer_depth : {true, false}) {
    const std::vector<std::vector<Comparator>> seqs =
        ref_composed(512, prefer_depth);
    for (int n = 11; n <= 512; ++n) {
      // Equal layers, comparator for comparator, mean equal flattened
      // sequences: the order the served engine runs.
      ASSERT_EQ(composed_sort_network(n, prefer_depth).layers(),
                ref_asap(n, seqs[static_cast<std::size_t>(n)]))
          << n << (prefer_depth ? "d" : "s");
    }
  }
}

TEST(Compose, FromFlatMatchesPlainAsapLayering) {
  Xoshiro256 rng(1010);
  for (int channels = 2; channels <= 40; ++channels) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<Comparator> seq(rng.below(200));
      for (Comparator& c : seq) {
        const int a = static_cast<int>(rng.below(channels));
        const int b = static_cast<int>(rng.below(channels - 1));
        c = {std::min(a, b + (b >= a)), std::max(a, b + (b >= a))};
      }
      ASSERT_EQ(ComparatorNetwork::from_flat("f", channels, seq).layers(),
                ref_asap(channels, seq))
          << channels << " channels, trial " << trial;
    }
  }
}

TEST(Compose, ComposedSortsAllBinaryTo16) {
  for (int n = 1; n <= 16; ++n) {
    for (const bool prefer_depth : {true, false}) {
      const ComparatorNetwork net = composed_sort_network(n, prefer_depth);
      SCOPED_TRACE(net.name());
      ASSERT_EQ(net.channels(), n);
      ASSERT_TRUE(net.well_formed());
      ASSERT_TRUE(net.sorts_all_binary());
    }
  }
  EXPECT_THROW(composed_sort_network(0), std::invalid_argument);
}

TEST(Compose, ComposedIsWellFormedBeyond32Channels) {
  for (const int n : {33, 64, 1024}) {
    for (const bool prefer_depth : {true, false}) {
      const ComparatorNetwork net = composed_sort_network(n, prefer_depth);
      SCOPED_TRACE(net.name());
      EXPECT_TRUE(net.well_formed());
    }
  }
}

TEST(Compose, PpcSortsAllBinaryTo16) {
  for (const PpcTopology topo : {PpcTopology::ladner_fischer,
                                 PpcTopology::sklansky, PpcTopology::serial}) {
    for (int n = 1; n <= 16; ++n) {
      const ComparatorNetwork net = ppc_sort_network(n, topo);
      SCOPED_TRACE(net.name());
      ASSERT_EQ(net.channels(), n);
      ASSERT_TRUE(net.well_formed());
      ASSERT_TRUE(net.sorts_all_binary());
    }
  }
}

TEST(Compose, PpcRejectsPrefixReusingTopologies) {
  // kogge_stone / han_carlson reuse intermediate prefixes; an in-place
  // comparator network cannot express that, so the route must refuse
  // rather than silently emit a non-sorting network.
  EXPECT_TRUE(ppc_compose_supported(PpcTopology::ladner_fischer));
  EXPECT_TRUE(ppc_compose_supported(PpcTopology::sklansky));
  EXPECT_TRUE(ppc_compose_supported(PpcTopology::serial));
  EXPECT_FALSE(ppc_compose_supported(PpcTopology::kogge_stone));
  EXPECT_FALSE(ppc_compose_supported(PpcTopology::han_carlson));
  EXPECT_THROW(ppc_sort_network(8, PpcTopology::kogge_stone),
               std::invalid_argument);
  EXPECT_THROW(ppc_sort_network(8, PpcTopology::han_carlson),
               std::invalid_argument);
  EXPECT_THROW(ppc_sort_network(0), std::invalid_argument);
}

TEST(Compose, ComposedStaysWithinBatcherBounds) {
  // The composition must never be worse than plain Batcher (its leaves are
  // optimal, its glue identical), and sklansky must be the depth champion
  // among the PPC cones.
  for (const int n : {11, 17, 24, 32}) {
    const ComparatorNetwork batcher = batcher_odd_even(n);
    const ComparatorNetwork composed = composed_sort_network(n, true);
    SCOPED_TRACE(composed.name());
    EXPECT_LE(composed.size(), batcher.size());
    EXPECT_LE(composed.depth(), batcher.depth());
    const ComparatorNetwork sk = ppc_sort_network(n, PpcTopology::sklansky);
    const ComparatorNetwork lf =
        ppc_sort_network(n, PpcTopology::ladner_fischer);
    EXPECT_LE(sk.depth(), lf.depth());
  }
}

// --- comparator-level differential up to 32 channels -----------------------

TEST(Compose, ComparatorDifferentialAgainstStdSortTo32) {
  Xoshiro256 rng(2018);
  for (int n = 2; n <= 32; ++n) {
    const ComparatorNetwork nets[] = {
        composed_sort_network(n, true),
        composed_sort_network(n, false),
        ppc_sort_network(n, PpcTopology::ladner_fischer),
        ppc_sort_network(n, PpcTopology::sklansky),
    };
    for (const ComparatorNetwork& net : nets) {
      SCOPED_TRACE(net.name());
      for (int round = 0; round < 50; ++round) {
        std::vector<std::uint64_t> v;
        v.reserve(static_cast<std::size_t>(n));
        for (int c = 0; c < n; ++c) v.push_back(rng.below(8));  // many ties
        std::vector<std::uint64_t> expect = v;
        std::sort(expect.begin(), expect.end());
        net.apply(v);
        ASSERT_EQ(v, expect);
      }
    }
  }
}

// --- gate-level differential: random + metastable inputs to 32 -------------

// Random measurement ranks — spanning fully-valid codewords and the
// marginal (metastability-containing) strings between them — sorted by
// `engine` (the served engine, or BatchEvaluator over an elaborated
// netlist) over `net` at `bits` and checked against rank order.
template <class Engine>
void check_engine_differential(const Engine& engine,
                               const ComparatorNetwork& net, std::size_t bits,
                               std::uint64_t seed, int rounds) {
  const int n = net.channels();
  Xoshiro256 rng(seed);
  for (int round = 0; round < rounds; ++round) {
    std::vector<Word> in;
    std::vector<std::uint64_t> ranks;
    for (int c = 0; c < n; ++c) {
      // Odd ranks are the marginal M-containing strings, so roughly half
      // of every round is metastable input.
      const std::uint64_t r = rng.below(valid_count(bits));
      ranks.push_back(r);
      in.push_back(valid_from_rank(r, bits));
    }
    const SortRequest request = SortRequest::from_words(in).value();
    std::vector<Trit> flat(request.payload.size());
    engine.run_flat(request.payload, flat);
    const std::vector<Word> out = split_words(flat, bits);
    std::sort(ranks.begin(), ranks.end());
    for (int c = 0; c < n; ++c) {
      ASSERT_EQ(out[static_cast<std::size_t>(c)],
                valid_from_rank(ranks[static_cast<std::size_t>(c)], bits))
          << net.name() << " n=" << n << " round=" << round << " c=" << c;
    }
  }
}

void check_sorter_differential(const McSorter& sorter, std::uint64_t seed,
                               int rounds) {
  check_engine_differential(sorter.engine(), sorter.network(), sorter.bits(),
                            seed, rounds);
}

TEST(Compose, ComposedSorterDifferentialRandomAndMetastableTo32) {
  for (int n = 2; n <= 32; ++n) {
    const McSorter sorter(n, 4);  // catalog <= 10, composed beyond
    check_sorter_differential(sorter, 9000u + static_cast<std::uint64_t>(n),
                              8);
  }
}

TEST(Compose, OtherCellsEngineDifferentialTo32) {
  // The served cell is the serial prefix; the paper's ladner_fischer and
  // the depth-minimal sklansky cone, elaborated over the same networks,
  // sort the same rounds end to end.
  for (const PpcTopology topo :
       {PpcTopology::ladner_fischer, PpcTopology::sklansky}) {
    for (const int n : {6, 11, 13, 17, 24, 32}) {
      const ComparatorNetwork net = NetworkBuilder().build(n)->network;
      const BatchEvaluator engine(
          elaborate_network(net, 4, sort2_builder({topo})));
      check_engine_differential(engine, net, 4,
                                9100u + static_cast<std::uint64_t>(n), 8);
    }
  }
}

TEST(Compose, PpcSorterDifferentialRandomAndMetastableTo32) {
  for (const PpcTopology topo :
       {PpcTopology::ladner_fischer, PpcTopology::sklansky}) {
    for (const int n : {5, 11, 17, 24, 32}) {
      const McSorter sorter(BuiltNetwork{ppc_sort_network(n, topo)}, 4);
      check_sorter_differential(sorter, 9200u + static_cast<std::uint64_t>(n),
                                6);
    }
  }
}

// --- compiled-program invariants and backend agreement ----------------------

TEST(Compose, VerifyIrPassesOnEveryComposedProgram) {
  for (const int n : {11, 16, 24, 32}) {
    const ComparatorNetwork nets[] = {
        composed_sort_network(n, true),
        ppc_sort_network(n, PpcTopology::ladner_fischer),
        ppc_sort_network(n, PpcTopology::sklansky),
    };
    for (const ComparatorNetwork& net : nets) {
      SCOPED_TRACE(net.name());
      const Netlist nl = elaborate_network(net, 3, sort2_builder());
      const CompiledProgram prog = CompiledProgram::compile(nl);
      const Status st = verify_ir(prog);
      ASSERT_TRUE(st.ok()) << st.to_string();
    }
  }
}

// The compile_test differential, pointed at composer-generated netlists:
// node-walking reference vs Evaluator (lane 0), 64-lane and 256-lane
// executors and the batch engine behind sort_batch_flat, every output of
// every vector.
void check_backends_against_node_walk(const Netlist& nl,
                                      const std::vector<Word>& corpus) {
  const std::size_t width = nl.inputs().size();
  const std::size_t outs = nl.outputs().size();
  const int vectors = static_cast<int>(corpus.size());

  NodeWalkEvaluator legacy(nl);
  std::vector<Word> want;
  want.reserve(corpus.size());
  std::vector<Trit> in;
  Word out;
  for (const Word& w : corpus) {
    in.assign(w.begin(), w.end());
    legacy.run_outputs(in, out);
    want.push_back(out);
  }

  const CompiledProgram prog = CompiledProgram::compile(nl);
  ASSERT_TRUE(verify_ir(prog).ok());
  ASSERT_TRUE(verify_netlist_replay(prog, nl).ok());

  // One vector at a time: Evaluator runs the same program on lane 0.
  Evaluator single(nl);
  for (int v = 0; v < vectors; ++v) {
    in.assign(corpus[v].begin(), corpus[v].end());
    single.run_outputs(in, out);
    ASSERT_EQ(out, want[v]) << "evaluator v=" << v;
  }

  auto check_packed = [&](auto backend_tag, const char* label) {
    using Backend = decltype(backend_tag);
    CompiledExecutor<Backend> exec(prog);
    std::vector<typename Backend::Value> pin(width);
    for (int base = 0; base < vectors; base += Backend::kLanes) {
      const int active = std::min(Backend::kLanes, vectors - base);
      for (std::size_t i = 0; i < width; ++i) {
        for (int lane = 0; lane < active; ++lane) {
          pin[i].set_lane(lane, corpus[base + lane][i]);
        }
      }
      exec.run(pin);
      for (int lane = 0; lane < active; ++lane) {
        for (std::size_t o = 0; o < outs; ++o) {
          ASSERT_EQ(exec.output_lane(o, lane), want[base + lane][o])
              << label << " v=" << base + lane << " o=" << o;
        }
      }
    }
  };
  check_packed(Packed64Backend{}, "packed64");
  check_packed(Packed256Backend{}, "packed256");

  const BatchEvaluator batch(nl);
  std::vector<Trit> flat_in;
  flat_in.reserve(corpus.size() * width);
  for (const Word& w : corpus) {
    flat_in.insert(flat_in.end(), w.begin(), w.end());
  }
  std::vector<Trit> flat_out(corpus.size() * outs);
  batch.run_flat(flat_in, flat_out);
  for (int v = 0; v < vectors; ++v) {
    for (std::size_t o = 0; o < outs; ++o) {
      ASSERT_EQ(flat_out[static_cast<std::size_t>(v) * outs + o], want[v][o])
          << "batch v=" << v << " o=" << o;
    }
  }
}

Word random_ternary(Xoshiro256& rng, std::size_t width) {
  Word w(width);
  for (std::size_t i = 0; i < width; ++i) {
    w[i] = trit_from_index(static_cast<int>(rng.below(3)));
  }
  return w;
}

TEST(Compose, AllBackendsMatchLegacyOnComposedNetworks) {
  // Random ternary inputs (arbitrary trits stress every gate path).
  constexpr int kVectors = 80;
  const ComparatorNetwork nets[] = {
      composed_sort_network(12, true),
      composed_sort_network(17, false),
      ppc_sort_network(13, PpcTopology::ladner_fischer),
      ppc_sort_network(11, PpcTopology::sklansky),
      odd_even_merge_network(5, 3),
  };
  Xoshiro256 rng(4242);
  for (const ComparatorNetwork& net : nets) {
    SCOPED_TRACE(net.name());
    const Netlist nl = elaborate_network(net, 2, sort2_builder());
    std::vector<Word> corpus;
    corpus.reserve(kVectors);
    for (int v = 0; v < kVectors; ++v) {
      corpus.push_back(random_ternary(rng, nl.inputs().size()));
    }
    check_backends_against_node_walk(nl, corpus);
  }
}

TEST(Compose, AllBackendsMatchLegacyOnComposed64x16) {
  // The served 64-channel, 16-bit shape (127,062 live gates),
  // where slot reuse packs the most values per slot: random ternary
  // vectors plus measurement rounds from the valid strings, about half of
  // them metastable. The rank-order check then pins the sorted result.
  McSorter sorter(64, 16);
  ASSERT_NE(sorter.network().name().find("compos"), std::string::npos)
      << sorter.network().name();
  const Netlist& nl = sorter.netlist();
  Xoshiro256 rng(6416);
  std::vector<Word> corpus;
  for (int v = 0; v < 40; ++v) {
    corpus.push_back(random_ternary(rng, nl.inputs().size()));
  }
  for (int v = 0; v < 40; ++v) {
    Word round(nl.inputs().size());
    for (std::size_t c = 0; c < 64; ++c) {
      const Word w = valid_from_rank(rng.below(valid_count(16)), 16);
      for (std::size_t b = 0; b < 16; ++b) round[c * 16 + b] = w[b];
    }
    corpus.push_back(std::move(round));
  }
  check_backends_against_node_walk(nl, corpus);
  check_sorter_differential(sorter, 9300u, 4);
}

// --- NetworkBuilder route / status surface ----------------------------------

TEST(NetworkBuilder, MapsDegenerateAndOversizedShapesToStatus) {
  NetworkBuilderOptions opt;
  opt.max_channels = 16;
  const NetworkBuilder builder(opt);

  const StatusOr<BuiltNetwork> zero = builder.build(0);
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);

  const StatusOr<BuiltNetwork> negative = builder.build(-3);
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);

  const StatusOr<BuiltNetwork> beyond = builder.build(17);
  ASSERT_FALSE(beyond.ok());
  EXPECT_EQ(beyond.status().code(), StatusCode::kUnimplemented);

  const StatusOr<BuiltNetwork> at_bound = builder.build(16);
  ASSERT_TRUE(at_bound.ok()) << at_bound.status().to_string();
  EXPECT_TRUE(at_bound->network.sorts_all_binary());
}

TEST(NetworkBuilder, ServesCatalogBelowElevenChannels) {
  const NetworkBuilder builder;
  for (int n = 1; n <= 10; ++n) {
    const StatusOr<BuiltNetwork> built = builder.build(n);
    ASSERT_TRUE(built.ok());
    EXPECT_EQ(built->network.layers(),
              composed_sort_network(n, /*prefer_depth=*/false).layers())
        << n;
  }
  EXPECT_EQ(builder.build(4)->network.size(), 5u);
  EXPECT_EQ(builder.build(9)->network.size(), 25u);
  // The served engine pays per comparator: the 29-comparator network, not
  // the 31-comparator depth-7 one.
  EXPECT_EQ(builder.build(10)->network.size(), 29u);
}

// The builder serves the composition without building the PPC routes for
// comparison: it is never larger and never deeper than either.
TEST(NetworkBuilder, ComposedRouteBeatsPpcRoutes) {
  const NetworkBuilder builder;  // max_channels 4096
  std::vector<int> shapes;
  for (int n = 11; n <= 1024; ++n) shapes.push_back(n);
  for (const int n : {2047, 2048, 2049, 4095, 4096}) shapes.push_back(n);
  for (const int n : shapes) {
    const StatusOr<BuiltNetwork> built = builder.build(n);
    ASSERT_TRUE(built.ok()) << n;
    const ComparatorNetwork& composed = built->network;
    ASSERT_TRUE(composed.well_formed()) << n;
    for (const PpcTopology topo :
         {PpcTopology::ladner_fischer, PpcTopology::sklansky}) {
      const ComparatorNetwork ppc = ppc_sort_network(n, topo);
      SCOPED_TRACE(ppc.name());
      ASSERT_TRUE(ppc.well_formed());
      ASSERT_LE(composed.size(), ppc.size());
      ASSERT_LE(composed.depth(), ppc.depth());
    }
  }
}

}  // namespace
}  // namespace mcsn
