#pragma once
// Elaboration of a comparator network into a flat gate-level netlist: every
// comparator becomes an instance of a 2-sort circuit over B-bit channel
// buses. Any 2-sort builder can be plugged in (the paper's circuit, the
// baselines, or Bin-comp), which is how Table 8 is generated.

#include <functional>
#include <string>

#include "mcsn/ckt/sort2.hpp"
#include "mcsn/nets/network.hpp"

namespace mcsn {

/// Builds (max, min) buses for one comparator instance from two channel
/// buses (g, h), both as wide as g and h. Must emit into `nl`; may emit
/// gates and constants, but no primary inputs or outputs, and may return
/// input bits unchanged.
///
/// elaborate_network calls the builder once, on fresh input buses, and
/// replicates the resulting cell for every comparator. A builder must
/// therefore emit the same structure on every call: what it emits may
/// depend on the bus width, never on the node ids of g and h or on what
/// `nl` already holds.
using Sort2Builder =
    std::function<BusPair(Netlist& nl, const Bus& g, const Bus& h)>;

/// Standard builders.
[[nodiscard]] Sort2Builder sort2_builder(const Sort2Options& opt = {});
[[nodiscard]] Sort2Builder sort2_naive_trees_builder();
[[nodiscard]] Sort2Builder sort2_date17_style_builder();
[[nodiscard]] Sort2Builder bincomp_builder();

/// Elaborates `net` over B-bit channels with one 2-sort instance per
/// comparator. Inputs ch<i>[.], outputs out<i>[.].
///
/// The builder runs once, on fresh inputs. Each comparator then appends a
/// copy of that cell's gates, its pins rewired to the comparator's channel
/// buses, in network layer order. The result is the netlist one builder
/// call per comparator would produce, node for node. The node count
/// (inputs plus comparators times cell nodes) is known before the node
/// array is allocated, which is reserved at exactly that size.
///
/// Throws std::length_error, before allocating the node array, when that
/// count exceeds what NodeId can index (see elaborated_node_count), and
/// std::invalid_argument when the builder returns buses of another width or
/// adds primary inputs or outputs.
[[nodiscard]] Netlist elaborate_network(const ComparatorNetwork& net,
                                        std::size_t bits,
                                        const Sort2Builder& builder,
                                        const std::string& name = {});

/// The node count of `net` elaborated over B-bit channels with a 2-sort
/// cell of `cell_nodes` nodes past its 2B pins: channels x B inputs plus
/// comparators x cell_nodes. Throws std::length_error when that exceeds
/// what NodeId can index. elaborate_network checks it before allocating;
/// McSorter checks it without elaborating, so it refuses exactly the
/// shapes whose netlist() could not be built.
std::size_t elaborated_node_count(const ComparatorNetwork& net,
                                  std::size_t bits, std::size_t cell_nodes);

}  // namespace mcsn
