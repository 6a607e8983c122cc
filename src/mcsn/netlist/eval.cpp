#include "mcsn/netlist/eval.hpp"

#include <cassert>

namespace mcsn {

namespace {

template <typename V, V (*EvalFn)(CellKind, V, V, V), V (*Splat)(Trit)>
void eval_pass(const Netlist& nl, std::span<const V> inputs,
               std::vector<V>& values) {
  assert(inputs.size() == nl.inputs().size());
  values.resize(nl.node_count());
  std::size_t next_input = 0;
  const auto& nodes = nl.nodes();
  for (NodeId id = 0; id < nodes.size(); ++id) {
    const GateNode& g = nodes[id];
    switch (g.kind) {
      case CellKind::input: values[id] = inputs[next_input++]; break;
      case CellKind::const0: values[id] = Splat(Trit::zero); break;
      case CellKind::const1: values[id] = Splat(Trit::one); break;
      default:
        values[id] =
            EvalFn(g.kind, values[g.in[0]], values[g.in[1]], values[g.in[2]]);
    }
  }
}

Trit splat_trit(Trit t) { return t; }

constexpr CompileOptions retain_all() {
  CompileOptions opt;
  opt.retain_all_nodes = true;
  // Creation order matches the NodeId-indexed slot layout, keeping operand
  // locality for the narrow 64-lane replay these wrappers serve.
  opt.levelize = false;
  return opt;
}

}  // namespace

std::vector<Trit> evaluate_nodes(const Netlist& nl,
                                 std::span<const Trit> inputs) {
  std::vector<Trit> values;
  eval_pass<Trit, &cell_eval, &splat_trit>(nl, inputs, values);
  return values;
}

Word evaluate(const Netlist& nl, std::span<const Trit> inputs) {
  const std::vector<Trit> values = evaluate_nodes(nl, inputs);
  Word out(nl.outputs().size());
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    out[i] = values[nl.outputs()[i].node];
  }
  return out;
}

Word evaluate(const Netlist& nl, const Word& inputs) {
  std::vector<Trit> in(inputs.begin(), inputs.end());
  return evaluate(nl, in);
}

NodeWalkEvaluator::NodeWalkEvaluator(const Netlist& nl) : nl_(&nl) {
  values_.reserve(nl.node_count());
}

std::span<const Trit> NodeWalkEvaluator::run(std::span<const Trit> inputs) {
  eval_pass<Trit, &cell_eval, &splat_trit>(*nl_, inputs, values_);
  return values_;
}

void NodeWalkEvaluator::run_outputs(std::span<const Trit> inputs, Word& out) {
  run(inputs);
  const auto& outs = nl_->outputs();
  if (out.size() != outs.size()) out = Word(outs.size());
  for (std::size_t i = 0; i < outs.size(); ++i) {
    out[i] = values_[outs[i].node];
  }
}

Evaluator::Evaluator(const Netlist& nl)
    : nl_(&nl),
      prog_(std::make_shared<const CompiledProgram>(
          CompiledProgram::compile(nl, retain_all()))),
      exec_(*prog_) {}

void Evaluator::execute(std::span<const Trit> inputs) {
  packed_.resize(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    packed_[i] = PackedTrit::splat(inputs[i]);
  }
  exec_.run(packed_);
}

std::span<const Trit> Evaluator::run(std::span<const Trit> inputs) {
  execute(inputs);
  // retain_all_nodes: slot == NodeId, each holding its node's own value.
  values_.resize(nl_->node_count());
  for (std::size_t id = 0; id < values_.size(); ++id) {
    values_[id] = exec_.value(static_cast<std::uint32_t>(2 * id)).lane(0);
  }
  return values_;
}

void Evaluator::run_outputs(std::span<const Trit> inputs, Word& out) {
  execute(inputs);
  const std::size_t outs = prog_->output_count();
  if (out.size() != outs) out = Word(outs);
  for (std::size_t i = 0; i < outs; ++i) out[i] = exec_.output_lane(i, 0);
}

PackedEvaluator::PackedEvaluator(const Netlist& nl)
    : prog_(std::make_shared<const CompiledProgram>(
          CompiledProgram::compile(nl, retain_all()))),
      exec_(*prog_) {}

void PackedEvaluator::run(std::span<const PackedTrit> inputs) {
  exec_.run(inputs);
}

}  // namespace mcsn
