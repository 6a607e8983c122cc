#pragma once
// Combinational gate-level netlist.
//
// Nodes are stored in topological order by construction: a gate may only
// reference already-existing nodes, so a single forward pass evaluates the
// circuit. This matches the paper's setting (purely combinational circuits;
// no registers, no cycles).

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mcsn/netlist/cell.hpp"

namespace mcsn {

using NodeId = std::uint32_t;

struct GateNode {
  CellKind kind = CellKind::input;
  std::array<NodeId, 3> in{0, 0, 0};
};

struct OutputPort {
  NodeId node = 0;
  std::string name;
};

/// A bus is an ordered list of nodes; index 0 is the paper's bit 1 (MSB).
using Bus = std::vector<NodeId>;

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  // --- construction ---------------------------------------------------

  /// Reserves room for `nodes` nodes in total, so a builder that knows
  /// its final size appends without reallocating the node array.
  void reserve(std::size_t nodes) { nodes_.reserve(nodes); }

  NodeId add_input(std::string name);

  /// Bus of `width` fresh inputs named <prefix>[0..width).
  Bus add_input_bus(const std::string& prefix, std::size_t width);

  NodeId constant(bool value);

  /// Generic gate; fanins must already exist (enforces topological order).
  NodeId add_gate(CellKind kind, NodeId a = 0, NodeId b = 0, NodeId c = 0);

  NodeId inv(NodeId a) { return add_gate(CellKind::inv, a); }
  NodeId and2(NodeId a, NodeId b) { return add_gate(CellKind::and2, a, b); }
  NodeId or2(NodeId a, NodeId b) { return add_gate(CellKind::or2, a, b); }
  NodeId nand2(NodeId a, NodeId b) { return add_gate(CellKind::nand2, a, b); }
  NodeId nor2(NodeId a, NodeId b) { return add_gate(CellKind::nor2, a, b); }
  NodeId xor2(NodeId a, NodeId b) { return add_gate(CellKind::xor2, a, b); }
  NodeId xnor2(NodeId a, NodeId b) { return add_gate(CellKind::xnor2, a, b); }
  /// mux2(a, b, s) = s ? b : a.
  NodeId mux2(NodeId a, NodeId b, NodeId s) {
    return add_gate(CellKind::mux2, a, b, s);
  }
  /// ao21(a, b, c) = (a & b) | c.
  NodeId ao21(NodeId a, NodeId b, NodeId c) {
    return add_gate(CellKind::ao21, a, b, c);
  }

  /// Appends gates and constants as given, in order, e.g. a copy of a
  /// cell with its fanins already rewired. Each gate may read only nodes
  /// before it and leaves pins past its arity at 0, as add_gate stores
  /// them (asserted); primary inputs come from add_input only.
  void add_nodes(std::span<const GateNode> nodes);

  void mark_output(NodeId node, std::string name);
  void mark_output_bus(const Bus& bus, const std::string& prefix);

  // --- inspection -----------------------------------------------------

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] const GateNode& node(NodeId id) const { return nodes_[id]; }
  [[nodiscard]] const std::vector<GateNode>& nodes() const noexcept {
    return nodes_;
  }

  [[nodiscard]] const std::vector<NodeId>& inputs() const noexcept {
    return inputs_;
  }
  [[nodiscard]] const std::vector<OutputPort>& outputs() const noexcept {
    return outputs_;
  }

  [[nodiscard]] const std::string& input_name(std::size_t i) const {
    return input_names_[i];
  }

  /// Number of logic gates (excludes inputs and constants).
  [[nodiscard]] std::size_t gate_count() const noexcept;

  /// Gate count per cell kind.
  [[nodiscard]] std::array<std::size_t, kCellKindCount> gate_histogram()
      const noexcept;

  /// True iff the netlist uses only MC-safe cells (INV/AND2/OR2).
  [[nodiscard]] bool mc_safe() const noexcept;

  /// Fanout count per node (number of gate pins each node drives).
  [[nodiscard]] std::vector<std::uint32_t> fanouts() const;

  /// Structural sanity: fanin ids in range and topologically ordered,
  /// outputs reference existing nodes. Returns true if well-formed.
  [[nodiscard]] bool validate() const noexcept;

 private:
  std::string name_;
  std::vector<GateNode> nodes_;
  std::vector<NodeId> inputs_;
  std::vector<std::string> input_names_;
  std::vector<OutputPort> outputs_;
};

}  // namespace mcsn
