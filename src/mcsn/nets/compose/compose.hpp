#pragma once
// Arbitrary-n construction of metastability-containing sorting networks.
//
// The paper's catalog stops at 10 channels; production traffic has a long
// tail of shapes. Two construction routes cover any channel count; the
// served one (NetworkBuilder) is composed_sort_network, which is never
// larger or deeper than the PPC route (pinned in compose_test):
//
//   * composed_sort_network — classic recursive odd-even merge composition:
//     split the channels in half, sort each half recursively, and merge
//     with Batcher's odd-even merge generalized to arbitrary (p, q) run
//     sizes. The recursion bottoms out on the *optimal* catalog blocks
//     (2-sort .. 10-sort), so every leaf is a paper-grade network and only
//     the merge glue is generated.
//
//   * ppc_sort_network — the parallel-prefix-computation construction
//     (arXiv 1911.00267, "Optimal MC Sorting via Parallel Prefix
//     Computation"): the merge tree is shaped by a PPC topology's
//     reduction cone over contiguous channel runs (combine = odd-even
//     merge of two adjacent sorted runs — adjacent, disjoint ranges only,
//     the Theorem 4.1 condition `ckt/ppc.hpp` documents). Supported
//     topologies are the reuse-free cones: ladner_fischer (balanced
//     pairing tree), sklansky (top-down halving — the depth-minimal
//     route), and serial (insertion chain, the FSM-unrolling reference).
//     kogge_stone / han_carlson reuse intermediate prefixes, which an
//     in-place comparator network cannot express; they are rejected.
//
// Every generated network is machine-checked in tests: the merger via the
// merge variant of the 0-1 principle, the sorters via the 0-1 principle
// (n <= 16 exhaustively) plus gate-level differential verification against
// a reference sort on random and metastable inputs up to n = 32.

#include "mcsn/ckt/ppc.hpp"
#include "mcsn/nets/network.hpp"

namespace mcsn {

/// Batcher's odd-even merge for arbitrary run sizes: given channels
/// [0, left) and [left, left+right) each sorted ascending, the network
/// sorts all left+right channels. left, right >= 1. Validated with
/// merges_sorted_halves() over every (left, right) pair in tests.
[[nodiscard]] ComparatorNetwork odd_even_merge_network(int left, int right);

/// Appends the comparators of odd_even_merge_network over two adjacent
/// channel runs [base, base+left) and [base+left, base+left+right) to
/// `seq` — the building block both construction routes share.
void append_odd_even_merge(std::vector<Comparator>& seq, int base, int left,
                           int right);

/// Recursive odd-even merge composition over the optimal catalog leaves
/// (n <= 10 returns the catalog network itself). `prefer_depth` picks the
/// 10-channel leaf variant (depth_optimal_10 vs size_optimal_10; the
/// builder serves size_optimal_10).
[[nodiscard]] ComparatorNetwork composed_sort_network(int channels,
                                                      bool prefer_depth = true);

/// True for the PPC topologies whose reduction cone is reuse-free and can
/// therefore be realized as a comparator network (ladner_fischer,
/// sklansky, serial).
[[nodiscard]] bool ppc_compose_supported(PpcTopology topo) noexcept;

/// The PPC-construction route: merge tree shaped by `topo`'s reduction
/// cone, singleton leaves. Throws std::invalid_argument for channels < 1
/// or an unsupported topology (!ppc_compose_supported).
[[nodiscard]] ComparatorNetwork ppc_sort_network(
    int channels, PpcTopology topo = PpcTopology::ladner_fischer);

}  // namespace mcsn
