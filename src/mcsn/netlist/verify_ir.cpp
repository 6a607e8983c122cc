#include "mcsn/netlist/verify_ir.hpp"

#include <array>
#include <cstddef>
#include <string>
#include <unordered_map>

#include "mcsn/netlist/cell.hpp"

namespace mcsn {
namespace {

std::string slot_str(std::uint32_t slot) { return std::to_string(slot); }

Status fail(const char* token, std::string detail) {
  return Status::internal(std::string("verify_ir: ") + token + ": " +
                          std::move(detail));
}

/// Who wrote a slot, as a tag: input i is i, const init i is
/// (inputs + i), op k is (inputs + const inits + k); kNone is nobody.
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

std::string writer_str(std::size_t tag, const IrImage& ir) {
  if (tag < ir.input_slots.size()) {
    return "input #" + std::to_string(tag);
  }
  tag -= ir.input_slots.size();
  if (tag < ir.const_inits.size()) {
    return "const init #" + std::to_string(tag);
  }
  tag -= ir.const_inits.size();
  return "op #" + std::to_string(tag);
}

/// level-structure and slot-bounds: the offsets partition the ops, and
/// every slot index anyone will dereference is in range. The executors
/// read all three operand pins regardless of arity (branch-free replay),
/// so even unused pins must be in bounds.
Status check_shape(const IrImage& ir, const VerifyIrOptions& opt) {
  const std::size_t n_ops = ir.ops.size();
  if (ir.level_offsets.empty()) {
    if (opt.require_levelized) {
      return fail("level-structure",
                  "program is not levelized but a levelized schedule was "
                  "required");
    }
  } else {
    if (ir.level_offsets.front() != 0) {
      return fail("level-structure",
                  "level_offsets[0] = " +
                      std::to_string(ir.level_offsets.front()) + ", want 0");
    }
    if (ir.level_offsets.back() != n_ops) {
      return fail("level-structure",
                  "level_offsets.back() = " +
                      std::to_string(ir.level_offsets.back()) + ", want " +
                      std::to_string(n_ops) + " (the op count)");
    }
    for (std::size_t l = 0; l + 1 < ir.level_offsets.size(); ++l) {
      if (ir.level_offsets[l] > ir.level_offsets[l + 1]) {
        return fail("level-structure",
                    "level_offsets not monotone at level " +
                        std::to_string(l));
      }
    }
  }

  const auto out_of_range = [&ir](const std::string& what, std::uint32_t s) {
    return fail("slot-bounds", what + " slot " + slot_str(s) +
                                   " >= slot_count " +
                                   std::to_string(ir.slot_count));
  };
  for (std::size_t i = 0; i < ir.input_slots.size(); ++i) {
    const std::uint32_t s = ir.input_slots[i];
    if (s != CompiledProgram::kNoSlot && s >= ir.slot_count) {
      return out_of_range("input #" + std::to_string(i), s);
    }
  }
  for (std::size_t i = 0; i < ir.const_inits.size(); ++i) {
    if (ir.const_inits[i].slot >= ir.slot_count) {
      return out_of_range("const init #" + std::to_string(i),
                          ir.const_inits[i].slot);
    }
  }
  for (std::size_t o = 0; o < ir.output_slots.size(); ++o) {
    if (ir.output_slots[o] >= ir.slot_count) {
      return out_of_range("output #" + std::to_string(o), ir.output_slots[o]);
    }
  }
  for (std::size_t k = 0; k < n_ops; ++k) {
    const CompiledOp& op = ir.ops[k];
    if (op.out >= ir.slot_count) {
      return out_of_range("op #" + std::to_string(k) + " out", op.out);
    }
    for (std::size_t j = 0; j < 3; ++j) {
      if (op.in[j] >= ir.slot_count) {
        return out_of_range("op #" + std::to_string(k) + " operand pin " +
                                std::to_string(j),
                            op.in[j]);
      }
    }
  }
  return Status();
}

/// Hash-consed expressions. A leaf is a primary input (kind input, index
/// i), a constant (kind const0, the Trit's value) or the never-written
/// marker (kind input, no index); a gate is its kind over operand
/// expression ids. Structurally equal expressions share one id.
class ExprTable {
 public:
  static constexpr std::uint32_t kNoOperand = 0xffffffffu;

  std::uint32_t leaf(CellKind kind, std::uint32_t index) {
    return intern({kind, {index, kNoOperand, kNoOperand}});
  }

  /// The expression of `kind` applied to the values at `pins` (per
  /// cell_arity; unused pins are ignored).
  template <class Values>
  std::uint32_t gate(CellKind kind, const std::array<std::uint32_t, 3>& pins,
                     const Values& values) {
    Key key{kind, {kNoOperand, kNoOperand, kNoOperand}};
    const int arity = cell_arity(kind);
    for (int j = 0; j < arity; ++j) {
      key.in[static_cast<std::size_t>(j)] =
          values[pins[static_cast<std::size_t>(j)]];
    }
    return intern(key);
  }

 private:
  struct Key {
    CellKind kind;
    std::array<std::uint32_t, 3> in;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::uint64_t h = static_cast<std::uint64_t>(k.kind);
      for (const std::uint32_t v : k.in) {
        h = (h ^ v) * 0x9e3779b97f4a7c15ull;
        h ^= h >> 29;
      }
      return static_cast<std::size_t>(h);
    }
  };

  std::uint32_t intern(const Key& key) {
    return ids_.try_emplace(key, static_cast<std::uint32_t>(ids_.size()))
        .first->second;
  }

  std::unordered_map<Key, std::uint32_t, KeyHash> ids_;
};

}  // namespace

IrImage ir_image_of(const CompiledProgram& prog) {
  IrImage ir;
  ir.slot_count = prog.slot_count();
  ir.ops.assign(prog.ops().begin(), prog.ops().end());
  for (std::size_t l = 0; l + 1 <= prog.level_count(); ++l) {
    if (ir.level_offsets.empty()) ir.level_offsets.push_back(0);
    ir.level_offsets.push_back(ir.level_offsets.back() +
                               prog.level_ops(l).size());
  }
  ir.input_slots.assign(prog.input_slots().begin(), prog.input_slots().end());
  ir.output_slots.assign(prog.output_slots().begin(),
                         prog.output_slots().end());
  ir.const_inits.assign(prog.const_inits().begin(), prog.const_inits().end());
  return ir;
}

Status verify_ir(const IrImage& ir, const VerifyIrOptions& opt) {
  if (Status s = check_shape(ir, opt); !s.ok()) return s;
  const std::size_t n_ops = ir.ops.size();
  const std::size_t op_tag0 = ir.input_slots.size() + ir.const_inits.size();

  // --- bad-op: the instruction stream holds gates only — input/const
  // kinds have no evaluation rule in the backends.
  for (std::size_t k = 0; k < n_ops; ++k) {
    if (!is_gate(ir.ops[k].kind)) {
      return fail("bad-op", "op #" + std::to_string(k) +
                                " has non-gate kind " +
                                std::string(cell_name(ir.ops[k].kind)));
    }
  }

  // The first writer of every slot, to tell a read of a slot nothing ever
  // writes (dangling-read) from one that runs too early (operand-order).
  std::vector<std::size_t> first_writer(ir.slot_count, kNone);
  const auto note_writer = [&first_writer](std::uint32_t s, std::size_t tag) {
    if (s != CompiledProgram::kNoSlot && first_writer[s] == kNone) {
      first_writer[s] = tag;
    }
  };
  for (std::size_t i = 0; i < ir.input_slots.size(); ++i) {
    note_writer(ir.input_slots[i], i);
  }
  for (std::size_t i = 0; i < ir.const_inits.size(); ++i) {
    note_writer(ir.const_inits[i].slot, ir.input_slots.size() + i);
  }
  for (std::size_t k = 0; k < n_ops; ++k) {
    note_writer(ir.ops[k].out, op_tag0 + k);
  }

  // Replay the schedule step by step, tracking per slot who wrote the
  // value it holds (holder), whether that value has been read, and the
  // step of the latest write. Step 0 is the const inits (the executor's
  // constructor) followed by the live inputs (every run()).
  std::vector<std::size_t> holder(ir.slot_count, kNone);
  std::vector<char> was_read(ir.slot_count, 0);
  std::vector<char> is_const(ir.slot_count, 0);
  std::vector<std::size_t> write_step(ir.slot_count, kNone);

  // --- write-conflict / const-overwrite at step 0.
  const auto initial_write = [&](std::uint32_t s, std::size_t tag) -> Status {
    if (is_const[s]) {
      return fail("const-overwrite", writer_str(tag, ir) +
                                         " writes slot " + slot_str(s) +
                                         ", which holds " +
                                         writer_str(holder[s], ir));
    }
    if (write_step[s] == 0) {
      return fail("write-conflict", "slot " + slot_str(s) + " written by " +
                                        writer_str(holder[s], ir) + " and " +
                                        writer_str(tag, ir) + " at step 0");
    }
    holder[s] = tag;
    write_step[s] = 0;
    return Status();
  };
  for (std::size_t i = 0; i < ir.const_inits.size(); ++i) {
    const std::uint32_t s = ir.const_inits[i].slot;
    if (Status st = initial_write(s, ir.input_slots.size() + i); !st.ok()) {
      return st;
    }
    is_const[s] = 1;
  }
  for (std::size_t i = 0; i < ir.input_slots.size(); ++i) {
    if (ir.input_slots[i] == CompiledProgram::kNoSlot) continue;
    if (Status st = initial_write(ir.input_slots[i], i); !st.ok()) return st;
  }

  // Ops: level l is step l + 1; in creation order each op is its own step.
  const bool levelized = !ir.level_offsets.empty();
  const std::size_t steps = levelized ? ir.level_offsets.size() - 1 : n_ops;
  std::vector<std::size_t> step_writer(ir.slot_count, kNone);
  for (std::size_t l = 0; l < steps; ++l) {
    const std::size_t begin = levelized ? ir.level_offsets[l] : l;
    const std::size_t end = levelized ? ir.level_offsets[l + 1] : l + 1;
    const std::size_t step = l + 1;

    // --- const-overwrite / write-conflict: constants are materialized
    // once per executor, and no two ops of one step share a destination.
    for (std::size_t k = begin; k < end; ++k) {
      const std::uint32_t s = ir.ops[k].out;
      if (is_const[s]) {
        return fail("const-overwrite",
                    "op #" + std::to_string(k) + " overwrites slot " +
                        slot_str(s) + ", which holds " +
                        writer_str(holder[s], ir));
      }
      if (write_step[s] == step) {
        return fail("write-conflict",
                    "slot " + slot_str(s) + " written by op #" +
                        std::to_string(step_writer[s]) + " and op #" +
                        std::to_string(k) + " in step " +
                        std::to_string(step));
      }
      write_step[s] = step;
      step_writer[s] = k;
    }

    // --- operand-level / dangling-read / operand-order: every operand an
    // op actually reads (per cell_arity) holds a value from an earlier
    // step. A slot this step also writes breaks level_ops() slicing (and,
    // in creation order, means an op reads its own destination).
    for (std::size_t k = begin; k < end; ++k) {
      const CompiledOp& op = ir.ops[k];
      const int arity = cell_arity(op.kind);
      for (int j = 0; j < arity; ++j) {
        const std::uint32_t s = op.in[static_cast<std::size_t>(j)];
        if (write_step[s] == step) {
          return fail("operand-level",
                      "op #" + std::to_string(k) + " in step " +
                          std::to_string(step) + " reads slot " +
                          slot_str(s) + ", which op #" +
                          std::to_string(step_writer[s]) +
                          " writes in the same step (want a strictly "
                          "earlier one)");
        }
        if (holder[s] == kNone) {
          if (first_writer[s] == kNone) {
            return fail("dangling-read",
                        "op #" + std::to_string(k) + " reads slot " +
                            slot_str(s) + ", which is never written");
          }
          return fail("operand-order",
                      "op #" + std::to_string(k) + " reads slot " +
                          slot_str(s) + " before its writer " +
                          writer_str(first_writer[s], ir) + " runs");
        }
        was_read[s] = 1;
      }
    }

    // --- clobber: with dead-node elimination every value is consumed — by
    // a reader, or as an output at the end — so overwriting one that was
    // never read loses a live value to slot reuse.
    for (std::size_t k = begin; k < end; ++k) {
      const std::uint32_t s = ir.ops[k].out;
      if (opt.require_reachable && holder[s] != kNone && !was_read[s]) {
        return fail("clobber", "op #" + std::to_string(k) +
                                   " overwrites slot " + slot_str(s) +
                                   " before anything reads the value " +
                                   writer_str(holder[s], ir) + " wrote");
      }
      holder[s] = op_tag0 + k;
      was_read[s] = 0;
    }
  }

  // --- unwritten-output / unwritten-slot: declared outputs must carry a
  // value, and the allocator hands out slots densely — a writer-less slot
  // is an allocation bug (or a mutation).
  for (std::size_t o = 0; o < ir.output_slots.size(); ++o) {
    if (holder[ir.output_slots[o]] == kNone) {
      return fail("unwritten-output",
                  "output #" + std::to_string(o) + " slot " +
                      slot_str(ir.output_slots[o]) + " has no writer");
    }
  }
  for (std::size_t s = 0; s < ir.slot_count; ++s) {
    if (first_writer[s] == kNone) {
      return fail("unwritten-slot",
                  "slot " + std::to_string(s) +
                      " has no writer (the allocation left a hole)");
    }
  }

  // --- orphan-op: with dead-node elimination on, every op must be
  // transitively reachable from a declared output. One reverse pass over
  // the stream tracks which slots hold a value something later needs; an
  // op's write ends the need for whatever its slot held before.
  if (opt.require_reachable) {
    std::vector<char> needed(ir.slot_count, 0);
    for (const std::uint32_t s : ir.output_slots) needed[s] = 1;
    for (std::size_t k = n_ops; k-- > 0;) {
      const CompiledOp& op = ir.ops[k];
      if (!needed[op.out]) {
        return fail("orphan-op",
                    "op #" + std::to_string(k) + " (out slot " +
                        slot_str(op.out) +
                        ") is unreachable from every declared output, but "
                        "dead-node elimination was enabled");
      }
      needed[op.out] = 0;
      const int arity = cell_arity(op.kind);
      for (int j = 0; j < arity; ++j) {
        needed[op.in[static_cast<std::size_t>(j)]] = 1;
      }
    }
  }

  return Status();
}

Status verify_ir(const CompiledProgram& prog, const VerifyIrOptions& opt) {
  return verify_ir(ir_image_of(prog), opt);
}

Status verify_netlist_replay(const IrImage& ir, const Netlist& nl) {
  if (Status s = check_shape(ir, {.require_levelized = false}); !s.ok()) {
    return s;
  }
  if (ir.input_slots.size() != nl.inputs().size() ||
      ir.output_slots.size() != nl.outputs().size()) {
    return fail("netlist-replay",
                "program has " + std::to_string(ir.input_slots.size()) +
                    " inputs and " + std::to_string(ir.output_slots.size()) +
                    " outputs, the netlist " +
                    std::to_string(nl.inputs().size()) + " and " +
                    std::to_string(nl.outputs().size()));
  }
  ExprTable table;
  const auto constant = [&table](Trit t) {
    return table.leaf(CellKind::const0, static_cast<std::uint32_t>(t));
  };
  const auto input = [&table](std::size_t i) {
    return table.leaf(CellKind::input, static_cast<std::uint32_t>(i));
  };

  // What every netlist node computes.
  const std::vector<GateNode>& nodes = nl.nodes();
  std::vector<std::uint32_t> want(nodes.size());
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    want[nl.inputs()[i]] = input(i);
  }
  for (NodeId id = 0; id < nodes.size(); ++id) {
    const GateNode& g = nodes[id];
    if (g.kind == CellKind::const0 || g.kind == CellKind::const1) {
      want[id] = constant(g.kind == CellKind::const1 ? Trit::one : Trit::zero);
    } else if (is_gate(g.kind)) {
      want[id] = table.gate(g.kind, g.in, want);
    }
  }

  // What the program leaves in each slot, starting from "never written".
  std::vector<std::uint32_t> slot(
      ir.slot_count, table.leaf(CellKind::input, ExprTable::kNoOperand));
  for (const CompiledProgram::ConstInit& c : ir.const_inits) {
    slot[c.slot] = constant(c.value);
  }
  for (std::size_t i = 0; i < ir.input_slots.size(); ++i) {
    if (ir.input_slots[i] != CompiledProgram::kNoSlot) {
      slot[ir.input_slots[i]] = input(i);
    }
  }
  for (const CompiledOp& op : ir.ops) {
    slot[op.out] = table.gate(op.kind, op.in, slot);
  }

  for (std::size_t o = 0; o < ir.output_slots.size(); ++o) {
    if (slot[ir.output_slots[o]] != want[nl.outputs()[o].node]) {
      return fail("netlist-replay",
                  "output #" + std::to_string(o) + " ('" +
                      nl.outputs()[o].name + "', slot " +
                      slot_str(ir.output_slots[o]) +
                      ") does not end holding the netlist's expression for "
                      "node " +
                      std::to_string(nl.outputs()[o].node));
    }
  }
  return Status();
}

Status verify_netlist_replay(const CompiledProgram& prog, const Netlist& nl) {
  return verify_netlist_replay(ir_image_of(prog), nl);
}

}  // namespace mcsn
