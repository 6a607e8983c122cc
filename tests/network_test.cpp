// Comparator network representation: layering, well-formedness, mask
// application, and the zero-one principle checker.

#include "mcsn/nets/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "mcsn/util/rng.hpp"

namespace mcsn {
namespace {

TEST(Network, FromFlatGreedyLayering) {
  // (0,1) and (2,3) are independent -> same layer; (1,2) depends on both.
  const ComparatorNetwork net = ComparatorNetwork::from_flat(
      "t", 4, {{0, 1}, {2, 3}, {1, 2}});
  EXPECT_EQ(net.depth(), 2u);
  EXPECT_EQ(net.size(), 3u);
  EXPECT_EQ(net.layers()[0].size(), 2u);
  EXPECT_EQ(net.layers()[1].size(), 1u);
  EXPECT_TRUE(net.well_formed());
}

TEST(Network, WellFormedRejectsBadComparators) {
  EXPECT_FALSE(
      ComparatorNetwork("t", 3, {{{0, 0}}}).well_formed());  // lo == hi
  EXPECT_FALSE(
      ComparatorNetwork("t", 3, {{{1, 0}}}).well_formed());  // lo > hi
  EXPECT_FALSE(
      ComparatorNetwork("t", 3, {{{0, 3}}}).well_formed());  // out of range
  EXPECT_FALSE(ComparatorNetwork("t", 4, {{{0, 1}, {1, 2}}})
                   .well_formed());  // channel reuse in layer
  EXPECT_TRUE(ComparatorNetwork("t", 4, {{{0, 1}, {2, 3}}}).well_formed());
}

// Channels 32 and up are tracked like any other: no channel index is used
// as a shift count into a fixed-width mask.
TEST(Network, WellFormedBeyond32Channels) {
  EXPECT_FALSE(ComparatorNetwork("t", 40, {{{1, 35}, {35, 39}}})
                   .well_formed());  // channel 35 twice in one layer
  EXPECT_TRUE(
      ComparatorNetwork("t", 40, {{{0, 1}, {32, 33}}}).well_formed());
  EXPECT_TRUE(ComparatorNetwork("t", 40, {{{1, 35}}, {{35, 39}}})
                  .well_formed());  // the same pair in two layers
}

TEST(Network, MaskSortedPredicate) {
  EXPECT_TRUE(mask_sorted(0b0000, 4));
  EXPECT_TRUE(mask_sorted(0b1000, 4));
  EXPECT_TRUE(mask_sorted(0b1110, 4));
  EXPECT_TRUE(mask_sorted(0b1111, 4));
  EXPECT_FALSE(mask_sorted(0b0001, 4));
  EXPECT_FALSE(mask_sorted(0b1010, 4));
}

TEST(Network, ApplyMaskMatchesVectorApply) {
  const ComparatorNetwork net = ComparatorNetwork::from_flat(
      "t", 5, {{0, 4}, {1, 3}, {0, 2}, {2, 4}, {0, 1}, {3, 4}, {1, 2}, {2, 3}});
  for (std::uint32_t m = 0; m < 32; ++m) {
    std::vector<int> v(5);
    for (int c = 0; c < 5; ++c) v[static_cast<std::size_t>(c)] = (m >> c) & 1;
    net.apply(v);
    std::uint32_t expect = 0;
    for (int c = 0; c < 5; ++c) {
      expect |= static_cast<std::uint32_t>(v[static_cast<std::size_t>(c)])
                << c;
    }
    EXPECT_EQ(net.apply_mask(m), expect) << m;
  }
}

TEST(Network, ZeroOnePrincipleDetectsNonSorter) {
  // A single comparator cannot sort 3 channels.
  const ComparatorNetwork bad =
      ComparatorNetwork::from_flat("bad", 3, {{0, 1}});
  EXPECT_FALSE(bad.sorts_all_binary());
  EXPECT_GT(bad.count_unsorted_binary(), 0u);
}

// A sorter validated by 0-1 must sort arbitrary integer vectors too
// (the zero-one principle, checked empirically).
TEST(Network, ZeroOneImpliesSortsIntegers) {
  const ComparatorNetwork net = ComparatorNetwork::from_flat(
      "bubble4", 4, {{0, 1}, {1, 2}, {2, 3}, {0, 1}, {1, 2}, {0, 1}});
  ASSERT_TRUE(net.sorts_all_binary());
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<int> v(4);
    for (auto& x : v) x = static_cast<int>(rng.below(100));
    std::vector<int> expect = v;
    std::sort(expect.begin(), expect.end());
    net.apply(v);
    EXPECT_EQ(v, expect);
  }
}

TEST(Network, FlattenedPreservesOrderAndCount) {
  const ComparatorNetwork net = ComparatorNetwork::from_flat(
      "t", 4, {{0, 1}, {2, 3}, {1, 2}});
  const std::vector<Comparator> flat = net.flattened();
  ASSERT_EQ(flat.size(), 3u);
  EXPECT_EQ(flat[0], (Comparator{0, 1}));
  EXPECT_EQ(flat[2], (Comparator{1, 2}));
}

TEST(Network, StreamOutput) {
  std::ostringstream ss;
  ss << ComparatorNetwork::from_flat("demo", 3, {{0, 1}, {1, 2}});
  const std::string s = ss.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("(0,1)"), std::string::npos);
  EXPECT_NE(s.find("L2"), std::string::npos);
}

}  // namespace
}  // namespace mcsn
