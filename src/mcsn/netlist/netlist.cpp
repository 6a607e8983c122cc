#include "mcsn/netlist/netlist.hpp"

namespace mcsn {

NodeId Netlist::add_input(std::string name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(GateNode{CellKind::input, {0, 0, 0}});
  inputs_.push_back(id);
  input_names_.push_back(std::move(name));
  return id;
}

Bus Netlist::add_input_bus(const std::string& prefix, std::size_t width) {
  Bus bus(width);
  for (std::size_t i = 0; i < width; ++i) {
    bus[i] = add_input(prefix + "[" + std::to_string(i) + "]");
  }
  return bus;
}

NodeId Netlist::constant(bool value) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(
      GateNode{value ? CellKind::const1 : CellKind::const0, {0, 0, 0}});
  return id;
}

NodeId Netlist::add_gate(CellKind kind, NodeId a, NodeId b, NodeId c) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  const int arity = cell_arity(kind);
  assert(arity >= 1 && "use add_input/constant for sources");
  assert(a < id);
  assert(arity < 2 || b < id);
  assert(arity < 3 || c < id);
  GateNode g{kind, {a, b, c}};
  if (arity < 2) g.in[1] = 0;
  if (arity < 3) g.in[2] = 0;
  nodes_.push_back(g);
  return id;
}

void Netlist::add_nodes(std::span<const GateNode> nodes) {
#ifndef NDEBUG
  auto id = static_cast<NodeId>(nodes_.size());
  for (const GateNode& g : nodes) {
    assert(g.kind != CellKind::input && "use add_input for inputs");
    const int arity = cell_arity(g.kind);
    for (int pin = 0; pin < 3; ++pin) {
      assert(pin < arity ? g.in[pin] < id : g.in[pin] == 0);
    }
    ++id;
  }
#endif
  nodes_.insert(nodes_.end(), nodes.begin(), nodes.end());
}

void Netlist::mark_output(NodeId node, std::string name) {
  assert(node < nodes_.size());
  outputs_.push_back(OutputPort{node, std::move(name)});
}

void Netlist::mark_output_bus(const Bus& bus, const std::string& prefix) {
  for (std::size_t i = 0; i < bus.size(); ++i) {
    mark_output(bus[i], prefix + "[" + std::to_string(i) + "]");
  }
}

std::size_t Netlist::gate_count() const noexcept {
  std::size_t n = 0;
  for (const GateNode& g : nodes_) n += is_gate(g.kind) ? 1 : 0;
  return n;
}

std::array<std::size_t, kCellKindCount> Netlist::gate_histogram()
    const noexcept {
  std::array<std::size_t, kCellKindCount> h{};
  for (const GateNode& g : nodes_) ++h[static_cast<int>(g.kind)];
  return h;
}

bool Netlist::mc_safe() const noexcept {
  for (const GateNode& g : nodes_) {
    if (!is_mc_safe(g.kind)) return false;
  }
  return true;
}

std::vector<std::uint32_t> Netlist::fanouts() const {
  std::vector<std::uint32_t> f(nodes_.size(), 0);
  for (const GateNode& g : nodes_) {
    for (int pin = 0; pin < cell_arity(g.kind); ++pin) ++f[g.in[pin]];
  }
  return f;
}

bool Netlist::validate() const noexcept {
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const GateNode& g = nodes_[id];
    for (int pin = 0; pin < cell_arity(g.kind); ++pin) {
      if (g.in[pin] >= id) return false;  // topological order violated
    }
  }
  for (const OutputPort& o : outputs_) {
    if (o.node >= nodes_.size()) return false;
  }
  return true;
}

}  // namespace mcsn
