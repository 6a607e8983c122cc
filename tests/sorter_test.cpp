// The McSorter facade: network selection, end-to-end sorting of valid
// strings and plain integers, stats plumbing.

#include "mcsn/sorter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mcsn/core/gray.hpp"
#include "mcsn/core/valid.hpp"
#include "mcsn/nets/catalog.hpp"
#include "mcsn/util/rng.hpp"

namespace mcsn {
namespace {

TEST(McSorter, PicksOptimalCatalogNetworks) {
  EXPECT_EQ(McSorter(4, 4).network().size(), 5u);
  EXPECT_EQ(McSorter(7, 4).network().size(), 16u);
  EXPECT_EQ(McSorter(9, 4).network().size(), 25u);
  // Ten channels: the size-optimal network, since the engine pays per
  // comparator (the depth-7 one has 31).
  EXPECT_EQ(McSorter(10, 4).network().layers(), size_optimal_10().layers());
  // Non-catalog size: Batcher.
  EXPECT_TRUE(McSorter(6, 4).network().sorts_all_binary());
}

TEST(McSorter, SortsIntegers) {
  McSorter sorter(8, 6);
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint64_t> vals;
    for (int c = 0; c < 8; ++c) vals.push_back(rng.below(64));
    std::vector<std::uint64_t> expect = vals;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(sorter.sort_values(vals), expect);
  }
}

TEST(McSorter, SortsMarginalMeasurements) {
  McSorter sorter(4, 5);
  Xoshiro256 rng(12);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Word> in;
    std::vector<std::uint64_t> ranks;
    for (int c = 0; c < 4; ++c) {
      const std::uint64_t r = rng.below(valid_count(5));
      ranks.push_back(r);
      in.push_back(valid_from_rank(r, 5));
    }
    const std::vector<Word> out = sorter.sort(in);
    std::sort(ranks.begin(), ranks.end());
    for (int c = 0; c < 4; ++c) {
      ASSERT_EQ(out[static_cast<std::size_t>(c)],
                valid_from_rank(ranks[static_cast<std::size_t>(c)], 5));
    }
  }
}

TEST(McSorter, StatsReflectUnderlyingNetlist) {
  McSorter sorter(4, 4);
  const CircuitStats s = sorter.stats();
  EXPECT_EQ(s.gates, 5 * 55u);  // 5 comparators x sort2(4)
  EXPECT_TRUE(s.mc_safe);
  EXPECT_GT(s.area, 0.0);
}

TEST(McSorter, Movable) {
  McSorter a(4, 4);
  const std::vector<std::uint64_t> in{9, 3, 14, 0};
  const std::vector<std::uint64_t> expect{0, 3, 9, 14};
  ASSERT_EQ(a.sort_values(in), expect);

  McSorter b(std::move(a));
  EXPECT_EQ(b.sort_values(in), expect);
  EXPECT_EQ(b.sort_batch({{gray_encode(2, 4), gray_encode(1, 4),
                           gray_encode(3, 4), gray_encode(0, 4)}})
                .size(),
            1u);

  McSorter c(6, 5);
  c = std::move(b);  // move assignment too
  EXPECT_EQ(c.channels(), 4);
  EXPECT_EQ(c.sort_values(in), expect);

  // Pools/containers can now hold sorters by value.
  std::vector<McSorter> pool;
  pool.push_back(McSorter(4, 4));
  pool.push_back(McSorter(7, 3));  // reallocation moves the first element
  EXPECT_EQ(pool[0].sort_values(in), expect);
  EXPECT_EQ(pool[1].sort_values({5, 2, 7, 0, 1, 6, 3}),
            (std::vector<std::uint64_t>{0, 1, 2, 3, 5, 6, 7}));
}

TEST(McSorter, RejectsDegenerateShapes) {
  EXPECT_THROW(McSorter(0, 4), std::invalid_argument);
  EXPECT_THROW(McSorter(4, 0), std::invalid_argument);
}

// The legacy wrappers validate their rounds and throw std::invalid_argument
// instead of reading or writing past the engine's buffers.
TEST(McSorter, SortBatchRejectsWrongWordCount) {
  const McSorter sorter(4, 4);
  const std::vector<Word> five(5, gray_encode(3, 4));
  EXPECT_THROW((void)sorter.sort_batch({five}), std::invalid_argument);
}

TEST(McSorter, SortBatchRejectsWrongWordWidth) {
  const McSorter sorter(4, 4);
  const std::vector<Word> wide(4, gray_encode(3, 6));
  EXPECT_THROW((void)sorter.sort_batch({wide}), std::invalid_argument);
}

TEST(McSorter, SortRejectsWrongWordCount) {
  const McSorter sorter(4, 4);
  const std::vector<Word> five(5, gray_encode(3, 4));
  EXPECT_THROW((void)sorter.sort(five), std::invalid_argument);
}

TEST(McSorter, SortValuesRejectsValuesWiderThanBits) {
  const McSorter sorter(4, 4);
  EXPECT_THROW((void)sorter.sort_values({20, 1, 2, 3}), std::invalid_argument);
  EXPECT_EQ(sorter.sort_values({15, 1, 2, 3}),
            (std::vector<std::uint64_t>{1, 2, 3, 15}));
}

// sort() and sort_values() are const: one shared sorter serves concurrent
// callers, each getting what sort_batch returns for the same rounds. 600
// rounds span three lane groups, so the threads' sort_batch calls shard
// over the shared engine pool at the same time.
TEST(McSorter, SortIsConstAndThreadSafe) {
  const McSorter flagship(10, 8);
  const McSorter composed(24, 8);
  constexpr int kThreads = 4;
  constexpr int kRounds = 600;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(100 + static_cast<std::uint64_t>(t));
      for (const McSorter* sorter : {&flagship, &composed}) {
        const std::size_t bits = sorter->bits();
        const auto channels = static_cast<std::size_t>(sorter->channels());
        std::vector<std::vector<Word>> rounds;
        std::vector<std::vector<Word>> sorted;
        std::vector<std::vector<Word>> value_rounds;
        std::vector<std::vector<std::uint64_t>> sorted_values;
        for (int r = 0; r < kRounds; ++r) {
          // Stable codewords (even ranks); about half the rounds carry one
          // metastable word (an odd rank).
          std::vector<Word> round;
          for (std::size_t c = 0; c < channels; ++c) {
            round.push_back(valid_from_rank(2 * rng.below(1u << bits), bits));
          }
          if (rng.below(2) == 1) {
            round[rng.below(channels)] =
                valid_from_rank(2 * rng.below((1u << bits) - 1) + 1, bits);
          }
          sorted.push_back(sorter->sort(round));
          rounds.push_back(std::move(round));

          std::vector<std::uint64_t> values;
          std::vector<Word> encoded;
          for (std::size_t c = 0; c < channels; ++c) {
            values.push_back(rng.below(1u << bits));
            encoded.push_back(gray_encode(values.back(), bits));
          }
          sorted_values.push_back(sorter->sort_values(values));
          value_rounds.push_back(std::move(encoded));
        }
        if (sorter->sort_batch(rounds) != sorted) ++failures[t];
        const std::vector<std::vector<Word>> batch =
            sorter->sort_batch(value_rounds);
        for (int r = 0; r < kRounds; ++r) {
          std::vector<std::uint64_t> decoded;
          for (const Word& w : batch[r]) decoded.push_back(gray_decode(w));
          if (decoded != sorted_values[r]) ++failures[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
}

// Satellite regression: the integer entry points used to silently
// Gray-encode with bits > 64, shifting out of the uint64_t range. Raw
// trit-word sorting at such widths stays legal; only the value-based
// convenience wrappers must refuse.
TEST(McSorter, IntegerEntryPointsRejectBitsOver64) {
  McSorter sorter(2, 65);
  EXPECT_THROW((void)sorter.sort_values({1, 0}), std::invalid_argument);
  EXPECT_THROW((void)sorter.sort_values_batch({{1, 0}}),
               std::invalid_argument);

  // The trit-level paths still work at 65 bits.
  const Word lo(65, Trit::zero);
  Word hi(65, Trit::zero);
  hi[0] = Trit::one;  // MSB set: hi > lo in Gray order
  const std::vector<Word> sorted = McSorter(2, 65).sort({hi, lo});
  EXPECT_EQ(sorted[0], lo);
  EXPECT_EQ(sorted[1], hi);
}

// 4096x2048 passes SortShape::validate and max_channels, but its netlist
// would hold 139,263 comparators x 42,979-gate serial cells, about
// 6.0 x 10^9 nodes: more than NodeId can index. Construction refuses it
// with std::length_error before allocating the node array, instead of
// growing the array until allocation fails.
TEST(McSorter, RefusesNetlistsNodeIdCannotIndex) {
  EXPECT_THROW(McSorter(4096, 2048), std::length_error);
}

// Runs `engine` and the elaborated netlist `nl` on random trits, so 0, 1
// and M all appear, not only valid strings: on one round, a partial group,
// a group and one more round, and three sharded groups. They must agree
// bit for bit. Both evaluators pack and unpack through one lane-group
// loop, so that loop is checked against the node walker in compile_test
// (SortBatchMatchesPerRoundSort...).
void expect_engine_matches_netlist(const CellNetworkEvaluator& engine,
                                   const Netlist& nl, const std::string& what,
                                   Xoshiro256& rng) {
  const BatchEvaluator elaborated(nl);
  constexpr std::size_t kRounds[] = {1, 255, 257, 600};
  for (const std::size_t rounds : kRounds) {
    std::vector<Trit> in(rounds * engine.width());
    for (Trit& t : in) t = static_cast<Trit>(rng.below(3));
    std::vector<Trit> served(in.size());
    std::vector<Trit> want(in.size());
    engine.run_flat(in, served);
    elaborated.run_flat(in, want);
    ASSERT_EQ(served, want) << what << ", " << rounds << " rounds";
  }
}

constexpr std::pair<int, std::size_t> kEngineShapes[] = {
    {1, 3},  {2, 1},  {3, 2},  {7, 5}, {10, 8},
    {10, 16}, {24, 8}, {64, 16}, {5, 32}, {3, 64}};

std::string shape_name(int channels, std::size_t bits) {
  return std::to_string(channels) + "x" + std::to_string(bits);
}

// The served engine runs the serial scan in place per comparator over a
// channel-major state array, and must compute netlist() bit for bit. The
// two share sort2_serial_scan, so this catches a wrong PackedTrit256 op,
// not a wrong scan; ServedKernelMatchesLadnerFischerCell does that.
TEST(McSorter, ServedEngineMatchesElaboratedNetlist) {
  Xoshiro256 rng(21);
  for (const auto& [channels, bits] : kEngineShapes) {
    const McSorter sorter(channels, bits);
    expect_engine_matches_netlist(sorter.engine(), sorter.netlist(),
                                  shape_name(channels, bits), rng);
  }
}

// The served kernel against the paper's Ladner–Fischer cell, which the
// PPC builds without the scan: on every ternary pair (g, h) for B <= 4
// (3^8 = 6,561 pairs at B = 4), and on 1,024 random ternary pairs, every
// lane of four lane groups, for B = 5..24, 31..33 and 63..65. A 2-channel
// sorter runs one comparator and leaves min in channel 0 and max in
// channel 1; the cell outputs max then min.
TEST(McSorter, ServedKernelMatchesLadnerFischerCell) {
  Xoshiro256 rng(24);
  std::vector<std::size_t> widths;
  for (std::size_t bits = 1; bits <= 24; ++bits) widths.push_back(bits);
  for (const std::size_t bits : {31, 32, 33, 63, 64, 65}) {
    widths.push_back(bits);
  }
  for (const std::size_t bits : widths) {
    const McSorter sorter(2, bits);
    const BatchEvaluator paper(make_sort2(bits));
    const std::size_t width = 2 * bits;
    std::vector<Trit> pairs;
    if (bits <= 4) {
      std::size_t count = 1;
      for (std::size_t i = 0; i < width; ++i) count *= 3;
      pairs.resize(count * width);
      for (std::size_t v = 0; v < count; ++v) {
        std::size_t digits = v;
        for (std::size_t i = 0; i < width; ++i, digits /= 3) {
          pairs[v * width + i] = static_cast<Trit>(digits % 3);
        }
      }
    } else {
      pairs.resize(1024 * width);
      for (Trit& t : pairs) t = static_cast<Trit>(rng.below(3));
    }
    std::vector<Trit> served(pairs.size());
    std::vector<Trit> want(pairs.size());
    ASSERT_TRUE(sorter.sort_batch_flat(pairs, served).ok());
    paper.run_flat(pairs, want);
    for (std::size_t v = 0; v < pairs.size() / width; ++v) {
      const auto min = served.begin() + static_cast<std::ptrdiff_t>(v * width);
      const auto max = want.begin() + static_cast<std::ptrdiff_t>(v * width);
      const auto b = static_cast<std::ptrdiff_t>(bits);
      ASSERT_TRUE(std::equal(min, min + b, max + b) &&
                  std::equal(min + b, min + 2 * b, max))
          << "B=" << bits << ", pair " << v;
    }
  }
}

// sort_batch_flat(buf, buf) sorts in place: the result equals the
// out-of-place call's on one round, a partial group, exactly one group,
// one more round and three sharded groups. A buffer that partly overlaps
// the input is refused, and nothing is written.
TEST(McSorter, SortBatchFlatInPlaceMatchesOutOfPlace) {
  Xoshiro256 rng(23);
  for (const auto& [channels, bits] : kEngineShapes) {
    const McSorter sorter(channels, bits);
    const std::size_t width = sorter.shape().trits();
    for (const std::size_t rounds : {1u, 255u, 256u, 257u, 600u}) {
      std::vector<Trit> buf(rounds * width);
      for (Trit& t : buf) t = static_cast<Trit>(rng.below(3));
      std::vector<Trit> want(buf.size());
      ASSERT_TRUE(sorter.sort_batch_flat(buf, want).ok());
      ASSERT_TRUE(sorter.sort_batch_flat(buf, buf).ok());
      ASSERT_EQ(buf, want) << shape_name(channels, bits) << ", " << rounds
                           << " rounds";
    }

    // Rounds [0, 2) sorted into rounds [1, 3) of the same buffer.
    std::vector<Trit> buf(3 * width);
    for (Trit& t : buf) t = static_cast<Trit>(rng.below(3));
    const std::vector<Trit> before = buf;
    const std::span<Trit> all(buf);
    EXPECT_EQ(sorter.sort_batch_flat(all.first(2 * width),
                                     all.subspan(width))
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_THROW(sorter.engine().run_flat(all.first(2 * width),
                                          all.subspan(width)),
                 std::invalid_argument);
    EXPECT_EQ(buf, before) << shape_name(channels, bits);
  }
}

// The cells make_sort2 builds besides the served one, elaborated and run
// by BatchEvaluator: AOI cells, the depth-minimal sklansky cell and the
// paper's ladner_fischer cell sort every round as the served engine does.
TEST(BatchEvaluator, OtherCellsMatchServedEngine) {
  const std::pair<const char*, Sort2Options> cells[] = {
      {"aoi_cells", {PpcTopology::serial, OpStyle::aoi_cells}},
      {"sklansky", {PpcTopology::sklansky, OpStyle::simple_gates}},
      {"ladner_fischer", {PpcTopology::ladner_fischer, OpStyle::simple_gates}},
  };
  Xoshiro256 rng(22);
  for (const auto& [name, cell] : cells) {
    for (const auto& [channels, bits] : kEngineShapes) {
      const McSorter sorter(channels, bits);
      expect_engine_matches_netlist(
          sorter.engine(),
          elaborate_network(sorter.network(), bits, sort2_builder(cell)),
          shape_name(channels, bits) + " " + name, rng);
    }
  }
}

// AOI cells fuse each selection circuit into OA21/AO21/INV cells: not
// MC-safe simple gates, fewer gates, and the same sorted values.
TEST(BatchEvaluator, AoiCellsSortValues) {
  const Sort2Options aoi{PpcTopology::serial, OpStyle::aoi_cells};
  const SortShape shape{4, 4};
  const ComparatorNetwork net = NetworkBuilder().build(shape.channels)->network;
  const Netlist nl = elaborate_network(net, shape.bits, sort2_builder(aoi));
  const CircuitStats stats = compute_stats(nl);
  EXPECT_FALSE(stats.mc_safe);  // AOI cells, still MC by tests
  EXPECT_LT(stats.gates, 5 * 55u);

  const BatchEvaluator engine(nl);
  const std::uint64_t values[] = {9, 3, 14, 0};
  const SortRequest request = SortRequest::from_values(shape, values).value();
  std::vector<Trit> out(request.payload.size());
  engine.run_flat(request.payload, out);
  EXPECT_EQ(decode_flat_values(shape, out).value(),
            (std::vector<std::uint64_t>{0, 3, 9, 14}));
}

}  // namespace
}  // namespace mcsn
