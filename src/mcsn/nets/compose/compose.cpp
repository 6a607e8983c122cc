#include "mcsn/nets/compose/compose.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "mcsn/nets/catalog.hpp"

namespace mcsn {

namespace {

// Channel k of a merge list: `n1` channels s1, s1 + d, ... followed by
// channels s2, s2 + d, ... (two stride-d progressions back to back).
int list_at(int s1, int n1, int s2, int d, int k) {
  return k < n1 ? s1 + k * d : s2 + (k - n1) * d;
}

// Merges two sorted channel runs a = (sa, sa + d, ...; na channels) and
// b = (sb, sb + d, ...; nb channels). Every channel of a precedes every
// channel of b, so the concatenation Z = a ++ b is the output order, and
// the cleanup pairs below always land on Z-adjacent channels.
//
// Classic odd-even recursion generalized to arbitrary |a|, |b|: merge the
// odd-indexed elements of both runs, merge the even-indexed elements,
// then one cleanup layer of compare-exchanges between even-merge output i
// and odd-merge output i+1 (Knuth TAOCP vol. 3, 5.3.4). Both halves of a
// run are again progressions of stride 2d, so no list is materialized.
void oe_merge(std::vector<Comparator>& seq, int sa, int na, int sb, int nb,
              int d) {
  if (na == 0 || nb == 0) return;
  if (na == 1 && nb == 1) {
    seq.push_back({sa, sb});
    return;
  }
  const int odd_a = (na + 1) / 2;  // a[0], a[2], ...
  const int odd_b = (nb + 1) / 2;
  const int even_a = na / 2;  // a[1], a[3], ...
  const int even_b = nb / 2;
  oe_merge(seq, sa, odd_a, sb, odd_b, 2 * d);
  oe_merge(seq, sa + d, even_a, sb + d, even_b, 2 * d);

  const int pairs = std::min(even_a + even_b, odd_a + odd_b - 1);
  for (int i = 0; i < pairs; ++i) {
    const int x = list_at(sa + d, even_a, sb + d, 2 * d, i);
    const int y = list_at(sa, odd_a, sb, 2 * d, i + 1);
    seq.push_back({std::min(x, y), std::max(x, y)});
  }
}

void check_channels(const char* who, int channels) {
  if (channels < 1) {
    throw std::invalid_argument(std::string(who) + ": channels must be >= 1");
  }
}

/// The optimal catalog network for n <= 10 (nullopt-free: callers guard n).
ComparatorNetwork catalog_leaf(int n, bool prefer_depth) {
  switch (n) {
    case 1: return ComparatorNetwork("1-sort", 1, {});
    case 2: return optimal_2();
    case 3: return optimal_3();
    case 4: return optimal_4();
    case 5: return optimal_5();
    case 6: return optimal_6();
    case 7: return optimal_7();
    case 8: return optimal_8();
    case 9: return optimal_9();
    case 10: return prefer_depth ? depth_optimal_10() : size_optimal_10();
    default: break;
  }
  assert(false && "catalog_leaf: n must be <= 10");
  return {};
}

// The catalog leaves' comparators in layer order, flattened once per
// process: slot n for n <= 9, slots 10 and 11 for the size- and
// depth-optimal 10-channel networks.
const std::vector<Comparator>& flat_leaf(int n, bool prefer_depth) {
  static const std::array<std::vector<Comparator>, 12> leaves = [] {
    std::array<std::vector<Comparator>, 12> flat;
    for (int k = 1; k <= 10; ++k) flat[k] = catalog_leaf(k, false).flattened();
    flat[11] = catalog_leaf(10, true).flattened();
    return flat;
  }();
  return leaves[n == 10 && prefer_depth ? 11 : n];
}

// An empty sequence with room for an odd-even merge sort of `channels`:
// at most n * k * (k + 1) / 4 comparators, k = ceil(log2 n) (Batcher's
// bound), so building one takes a single allocation.
std::vector<Comparator> sort_sequence(int channels) {
  const std::size_t n = static_cast<std::size_t>(channels);
  const std::size_t k = std::bit_width(n - 1);
  std::vector<Comparator> seq;
  seq.reserve(n * k * (k + 1) / 4);
  return seq;
}

// Sorts [base, base + n): catalog leaf for n <= 10, otherwise recurse on
// both halves and odd-even merge them.
void emit_composed(std::vector<Comparator>& seq, int base, int n,
                   bool prefer_depth) {
  if (n <= 1) return;
  if (n <= 10) {
    for (const Comparator& c : flat_leaf(n, prefer_depth)) {
      seq.push_back({c.lo + base, c.hi + base});
    }
    return;
  }
  const int left = n / 2;
  const int right = n - left;
  emit_composed(seq, base, left, prefer_depth);
  emit_composed(seq, base + left, right, prefer_depth);
  append_odd_even_merge(seq, base, left, right);
}

}  // namespace

void append_odd_even_merge(std::vector<Comparator>& seq, int base, int left,
                           int right) {
  assert(base >= 0 && left >= 1 && right >= 1);
  oe_merge(seq, base, left, base + left, right, 1);
}

ComparatorNetwork odd_even_merge_network(int left, int right) {
  if (left < 1 || right < 1) {
    throw std::invalid_argument(
        "odd_even_merge_network: both runs must be >= 1 channel");
  }
  std::vector<Comparator> seq;
  append_odd_even_merge(seq, 0, left, right);
  return ComparatorNetwork::from_flat(
      "oemerge-" + std::to_string(left) + "+" + std::to_string(right),
      left + right, seq);
}

ComparatorNetwork composed_sort_network(int channels, bool prefer_depth) {
  check_channels("composed_sort_network", channels);
  if (channels <= 10) return catalog_leaf(channels, prefer_depth);
  std::vector<Comparator> seq = sort_sequence(channels);
  emit_composed(seq, 0, channels, prefer_depth);
  return ComparatorNetwork::from_flat(
      "composed-" + std::to_string(channels) + (prefer_depth ? "d" : "s"),
      channels, seq);
}

bool ppc_compose_supported(PpcTopology topo) noexcept {
  switch (topo) {
    case PpcTopology::ladner_fischer:
    case PpcTopology::sklansky:
    case PpcTopology::serial:
      return true;
    case PpcTopology::kogge_stone:
    case PpcTopology::han_carlson:
      return false;
  }
  return false;
}

namespace {

// Sklansky reduction cone: split ceil/floor (the same split ppc_sklansky
// uses), sort both halves, merge — minimal merge-tree depth ceil(log2 n).
void emit_sklansky(std::vector<Comparator>& seq, int base, int n) {
  if (n <= 1) return;
  const int left = (n + 1) / 2;
  const int right = n - left;
  emit_sklansky(seq, base, left);
  emit_sklansky(seq, base + left, right);
  append_odd_even_merge(seq, base, left, right);
}

}  // namespace

ComparatorNetwork ppc_sort_network(int channels, PpcTopology topo) {
  check_channels("ppc_sort_network", channels);
  if (!ppc_compose_supported(topo)) {
    throw std::invalid_argument(
        std::string("ppc_sort_network: topology ") +
        std::string(ppc_topology_name(topo)) +
        " reuses intermediate prefixes and cannot be realized as an "
        "in-place comparator network (supported: ladner_fischer, sklansky, "
        "serial)");
  }
  std::vector<Comparator> seq = sort_sequence(channels);
  switch (topo) {
    case PpcTopology::ladner_fischer: {
      // Bottom-up pairing tree over runs (the ladner_fischer final-prefix
      // cone): repeatedly merge adjacent runs; a lone trailing run passes
      // through to the next level.
      std::vector<std::pair<int, int>> runs;  // (base, length)
      runs.reserve(static_cast<std::size_t>(channels));
      for (int c = 0; c < channels; ++c) runs.push_back({c, 1});
      while (runs.size() > 1) {
        std::vector<std::pair<int, int>> next;
        next.reserve((runs.size() + 1) / 2);
        for (std::size_t k = 0; 2 * k + 1 < runs.size(); ++k) {
          const auto [lbase, llen] = runs[2 * k];
          const auto [rbase, rlen] = runs[2 * k + 1];
          assert(lbase + llen == rbase);
          append_odd_even_merge(seq, lbase, llen, rlen);
          next.push_back({lbase, llen + rlen});
        }
        if (runs.size() % 2 == 1) next.push_back(runs.back());
        runs = std::move(next);
      }
      break;
    }
    case PpcTopology::sklansky:
      emit_sklansky(seq, 0, channels);
      break;
    case PpcTopology::serial:
      // Left fold: grow a sorted prefix one channel at a time (the serial
      // cone / FSM unrolling — quadratic size, reference route only).
      for (int i = 1; i < channels; ++i) {
        append_odd_even_merge(seq, 0, i, 1);
      }
      break;
    case PpcTopology::kogge_stone:
    case PpcTopology::han_carlson:
      break;  // unreachable: rejected above
  }
  return ComparatorNetwork::from_flat(
      "ppc-" + std::string(ppc_topology_name(topo)) + "-" +
          std::to_string(channels),
      channels, seq);
}

}  // namespace mcsn
