#include "mcsn/nets/elaborate.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "mcsn/ckt/bincomp.hpp"
#include "mcsn/ckt/sort2_baselines.hpp"

namespace mcsn {

Sort2Builder sort2_builder(const Sort2Options& opt) {
  return [opt](Netlist& nl, const Bus& g, const Bus& h) {
    return build_sort2(nl, g, h, opt);
  };
}

Sort2Builder sort2_naive_trees_builder() {
  return [](Netlist& nl, const Bus& g, const Bus& h) {
    return build_sort2_naive_trees(nl, g, h);
  };
}

Sort2Builder sort2_date17_style_builder() {
  return [](Netlist& nl, const Bus& g, const Bus& h) {
    return build_sort2_date17_style(nl, g, h);
  };
}

Sort2Builder bincomp_builder() {
  return [](Netlist& nl, const Bus& g, const Bus& h) {
    return build_bincomp(nl, g, h);
  };
}

namespace {

/// The 2-sort(B) cell elaborate_network stamps once per comparator: the
/// builder's output on fresh buses g = nodes [0, B) and h = [B, 2B), with
/// the builder's gates and constants after them.
class Sort2Cell {
 public:
  Sort2Cell(const Sort2Builder& builder, std::size_t bits) : bits_(bits) {
    Netlist cell;
    const Bus g = cell.add_input_bus("g", bits);
    const Bus h = cell.add_input_bus("h", bits);
    out_ = builder(cell, g, h);
    const std::size_t pins = 2 * bits;
    if (out_.min.size() != bits || out_.max.size() != bits ||
        cell.inputs().size() != pins || !cell.outputs().empty()) {
      throw std::invalid_argument(
          "elaborate_network: a Sort2Builder must return two " +
          std::to_string(bits) +
          "-bit buses and may not add primary inputs or outputs");
    }
    // In the copy whose first node is `base`, cell node k reads node
    // from_[k] + (base & shift_[k]): a pin reads the comparator's bus node
    // (from_ is rewritten per copy, shift_ is 0) and a gate its own copy
    // (from_ is its index among the copied nodes, shift_ all ones). Pins
    // past a gate's arity read the extra last entry, whose from_ and
    // shift_ are 0, so they stay at node 0 as add_nodes requires.
    const std::size_t unused = cell.node_count();
    from_.assign(unused + 1, 0);
    shift_.assign(unused + 1, 0);
    for (std::size_t k = pins; k < unused; ++k) {
      from_[k] = static_cast<NodeId>(k - pins);
      shift_[k] = ~NodeId{0};
    }
    gates_.assign(cell.nodes().begin() + static_cast<std::ptrdiff_t>(pins),
                  cell.nodes().end());
    for (GateNode& gate : gates_) {
      for (int j = cell_arity(gate.kind); j < 3; ++j) {
        gate.in[static_cast<std::size_t>(j)] = static_cast<NodeId>(unused);
      }
    }
    copy_.resize(gates_.size());
  }

  /// Nodes one copy appends.
  [[nodiscard]] std::size_t node_count() const noexcept {
    return gates_.size();
  }

  /// Appends one copy reading `lo` as g and `hi` as h, then points `lo`
  /// at its min bus and `hi` at its max bus.
  void stamp(Netlist& nl, Bus& lo, Bus& hi) {
    std::copy(lo.begin(), lo.end(), from_.begin());
    std::copy(hi.begin(), hi.end(),
              from_.begin() + static_cast<std::ptrdiff_t>(bits_));
    const auto base = static_cast<NodeId>(nl.node_count());
    const auto node = [&](NodeId k) { return from_[k] + (base & shift_[k]); };
    for (std::size_t i = 0; i < gates_.size(); ++i) {
      copy_[i].kind = gates_[i].kind;
      for (std::size_t j = 0; j < 3; ++j) {
        copy_[i].in[j] = node(gates_[i].in[j]);
      }
    }
    nl.add_nodes(copy_);
    for (std::size_t i = 0; i < bits_; ++i) {
      lo[i] = node(out_.min[i]);
      hi[i] = node(out_.max[i]);
    }
  }

 private:
  std::size_t bits_;
  BusPair out_;
  std::vector<GateNode> gates_;  // cell nodes past the pins
  std::vector<NodeId> from_;
  std::vector<NodeId> shift_;
  std::vector<GateNode> copy_;  // the copy being stamped
};

}  // namespace

std::size_t elaborated_node_count(const ComparatorNetwork& net,
                                  std::size_t bits, std::size_t cell_nodes) {
  const std::size_t inputs = static_cast<std::size_t>(net.channels()) * bits;
  const std::size_t comparators = net.size();
  constexpr std::size_t kMaxNodes = std::numeric_limits<NodeId>::max();
  if (inputs > kMaxNodes ||
      (comparators > 0 && cell_nodes > (kMaxNodes - inputs) / comparators)) {
    throw std::length_error(
        net.name() + " over " + std::to_string(bits) + "-bit channels needs " +
        std::to_string(inputs) + " inputs + " + std::to_string(comparators) +
        " comparators x " + std::to_string(cell_nodes) +
        " cell nodes, more than NodeId can index (" +
        std::to_string(kMaxNodes) + ")");
  }
  return inputs + comparators * cell_nodes;
}

Netlist elaborate_network(const ComparatorNetwork& net, std::size_t bits,
                          const Sort2Builder& builder,
                          const std::string& name) {
  std::string nl_name =
      name.empty() ? net.name() + "_b" + std::to_string(bits) : name;
  Sort2Cell cell(builder, bits);
  const std::size_t nodes = elaborated_node_count(net, bits, cell.node_count());

  Netlist nl(std::move(nl_name));
  nl.reserve(nodes);
  std::vector<Bus> channel(static_cast<std::size_t>(net.channels()));
  for (std::size_t c = 0; c < channel.size(); ++c) {
    channel[c] = nl.add_input_bus("ch" + std::to_string(c), bits);
  }
  for (const auto& layer : net.layers()) {
    for (const Comparator& cmp : layer) {
      // Comparator routes min to `lo`, max to `hi`.
      cell.stamp(nl, channel[static_cast<std::size_t>(cmp.lo)],
                 channel[static_cast<std::size_t>(cmp.hi)]);
    }
  }
  for (std::size_t c = 0; c < channel.size(); ++c) {
    nl.mark_output_bus(channel[c], "out" + std::to_string(c));
  }
  return nl;
}

}  // namespace mcsn
