#include "mcsn/netlist/verify_ir.hpp"

#include <array>
#include <cstddef>
#include <string>
#include <unordered_map>
#include <utility>

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

/// level-structure: the offsets partition the ops into levels. An empty
/// stream is a schedule of zero levels, offsets {0} (e.g. outputs that are
/// inputs, constants or inverters of them).
Status check_levels(const IrImage& ir) {
  const std::size_t n_ops = ir.ops.size();
  if (ir.level_offsets.empty()) {
    return fail("level-structure", "no level offsets, want at least {0}");
  }
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
                  "level_offsets not monotone at level " + std::to_string(l));
    }
  }
  return Status();
}

/// slot-bounds: every slot and rail index anyone will dereference is in
/// range. Every operand pin must be a valid rail, even and2's unused in[2].
Status check_bounds(const IrImage& ir) {
  const std::size_t n_ops = ir.ops.size();
  const auto out_of_range = [&ir](const std::string& what, std::uint32_t s) {
    return fail("slot-bounds", what + " slot " + slot_str(s) +
                                   " >= slot_count " +
                                   std::to_string(ir.slot_count));
  };
  const std::size_t rails = 2 * ir.slot_count;
  const auto rail_out_of_range = [&ir](const std::string& what,
                                       std::uint32_t r) {
    return fail("slot-bounds", what + " rail " + slot_str(r) +
                                   " >= 2 * slot_count " +
                                   std::to_string(2 * ir.slot_count));
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
  for (std::size_t o = 0; o < ir.output_rails.size(); ++o) {
    if (ir.output_rails[o] >= rails) {
      return rail_out_of_range("output #" + std::to_string(o),
                               ir.output_rails[o]);
    }
  }
  for (std::size_t k = 0; k < n_ops; ++k) {
    const CompiledOp& op = ir.ops[k];
    if (op.out >= rails) {
      return rail_out_of_range("op #" + std::to_string(k) + " out", op.out);
    }
    for (std::size_t j = 0; j < 3; ++j) {
      if (op.in[j] >= rails) {
        return rail_out_of_range(
            "op #" + std::to_string(k) + " operand pin " + std::to_string(j),
            op.in[j]);
      }
    }
  }
  return Status();
}

/// bad-op: every op has one of the three rail forms, and the form runs the
/// executor dispatches on cover the stream in order, each holding ops of
/// its own form only.
Status check_forms(const IrImage& ir) {
  const std::size_t n_ops = ir.ops.size();
  for (std::size_t k = 0; k < n_ops; ++k) {
    const auto form = static_cast<int>(ir.ops[k].form);
    if (form >= kRailFormCount) {
      return fail("bad-op", "op #" + std::to_string(k) + " has form " +
                                std::to_string(form) +
                                ", not one of and2, ao21, mux2");
    }
  }
  std::size_t begin = 0;
  for (std::size_t i = 0; i < ir.form_runs.size(); ++i) {
    const FormRun& run = ir.form_runs[i];
    if (run.end <= begin || run.end > n_ops) {
      return fail("bad-op", "form run #" + std::to_string(i) + " ends at " +
                                std::to_string(run.end) +
                                ", outside (" + std::to_string(begin) + ", " +
                                std::to_string(n_ops) + "]");
    }
    for (std::size_t k = begin; k < run.end; ++k) {
      if (ir.ops[k].form != run.form) {
        return fail("bad-op", "op #" + std::to_string(k) + " has form " +
                                  std::to_string(static_cast<int>(
                                      ir.ops[k].form)) +
                                  " but form run #" + std::to_string(i) +
                                  " dispatches form " +
                                  std::to_string(static_cast<int>(run.form)));
      }
    }
    begin = run.end;
  }
  if (begin != n_ops) {
    return fail("bad-op", "form runs cover " + std::to_string(begin) +
                              " of " + std::to_string(n_ops) + " ops");
  }
  return Status();
}

/// Hash-consed rail expressions: AND and OR over leaves. A leaf is one
/// rail of a primary input, an all-zero or all-one constant rail, or the
/// never-written marker. Structurally equal expressions share one id;
/// AND and OR are normalized for commutativity and idempotence only.
class RailExprTable {
 public:
  enum class Leaf : std::uint32_t {
    input_can0,
    input_can1,
    constant,
    unwritten,
  };

  std::uint32_t leaf(Leaf kind, std::uint32_t index) {
    return intern({Op::leaf, static_cast<std::uint32_t>(kind), index});
  }
  std::uint32_t all(bool one) { return leaf(Leaf::constant, one ? 1 : 0); }
  std::uint32_t and_(std::uint32_t x, std::uint32_t y) {
    return combine(Op::and_, x, y);
  }
  std::uint32_t or_(std::uint32_t x, std::uint32_t y) {
    return combine(Op::or_, x, y);
  }

 private:
  enum class Op : std::uint8_t { leaf, and_, or_ };
  struct Key {
    Op op;
    std::uint32_t x;
    std::uint32_t y;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::uint64_t h = static_cast<std::uint64_t>(k.op);
      for (const std::uint32_t v : {k.x, k.y}) {
        h = (h ^ v) * 0x9e3779b97f4a7c15ull;
        h ^= h >> 29;
      }
      return static_cast<std::size_t>(h);
    }
  };

  std::uint32_t combine(Op op, std::uint32_t x, std::uint32_t y) {
    if (x == y) return x;
    if (x > y) std::swap(x, y);
    return intern({op, x, y});
  }
  std::uint32_t intern(const Key& key) {
    return ids_.try_emplace(key, static_cast<std::uint32_t>(ids_.size()))
        .first->second;
  }

  std::unordered_map<Key, std::uint32_t, KeyHash> ids_;
};

/// A ternary value as its two rail expressions.
struct DualRail {
  std::uint32_t can0;
  std::uint32_t can1;
  bool operator==(const DualRail&) const = default;
};

/// The netlist side: each cell's dual-rail formula, composed from the
/// packed_and / packed_or / packed_not / packed_xor / packed_mux rules of
/// core/packed.hpp.
class CellRails {
 public:
  explicit CellRails(RailExprTable& t) : t_(t) {}

  DualRail eval(CellKind kind, DualRail a, DualRail b, DualRail c) {
    switch (kind) {
      case CellKind::inv: return inv(a);
      case CellKind::and2: return and2(a, b);
      case CellKind::or2: return or2(a, b);
      case CellKind::nand2: return inv(and2(a, b));
      case CellKind::nor2: return inv(or2(a, b));
      case CellKind::xor2: return xor2(a, b);
      case CellKind::xnor2: return inv(xor2(a, b));
      case CellKind::mux2: return mux2(a, b, c);
      case CellKind::aoi21: return inv(or2(and2(a, b), c));
      case CellKind::oai21: return inv(and2(or2(a, b), c));
      case CellKind::ao21: return or2(and2(a, b), c);
      case CellKind::oa21: return and2(or2(a, b), c);
      default: return a;  // input/const: not gates
    }
  }

 private:
  static DualRail inv(DualRail a) { return {a.can1, a.can0}; }
  DualRail and2(DualRail a, DualRail b) {
    return {t_.or_(a.can0, b.can0), t_.and_(a.can1, b.can1)};
  }
  DualRail or2(DualRail a, DualRail b) {
    return {t_.and_(a.can0, b.can0), t_.or_(a.can1, b.can1)};
  }
  DualRail xor2(DualRail a, DualRail b) {
    return {t_.or_(t_.and_(a.can0, b.can0), t_.and_(a.can1, b.can1)),
            t_.or_(t_.and_(a.can0, b.can1), t_.and_(a.can1, b.can0))};
  }
  DualRail mux2(DualRail d0, DualRail d1, DualRail s) {
    return {t_.or_(t_.and_(s.can0, d0.can0), t_.and_(s.can1, d1.can0)),
            t_.or_(t_.and_(s.can0, d0.can1), t_.and_(s.can1, d1.can1))};
  }

  RailExprTable& t_;
};

}  // namespace

IrImage ir_image_of(const CompiledProgram& prog) {
  IrImage ir;
  ir.slot_count = prog.slot_count();
  ir.ops.assign(prog.ops().begin(), prog.ops().end());
  ir.form_runs.assign(prog.form_runs().begin(), prog.form_runs().end());
  ir.level_offsets.push_back(0);
  for (std::size_t l = 0; l < prog.level_count(); ++l) {
    ir.level_offsets.push_back(ir.level_offsets.back() +
                               prog.level_ops(l).size());
  }
  ir.input_slots.assign(prog.input_slots().begin(), prog.input_slots().end());
  ir.output_rails.assign(prog.output_rails().begin(),
                         prog.output_rails().end());
  ir.const_inits.assign(prog.const_inits().begin(), prog.const_inits().end());
  return ir;
}

Status verify_ir(const IrImage& ir) {
  if (Status s = check_levels(ir); !s.ok()) return s;
  if (Status s = check_bounds(ir); !s.ok()) return s;
  if (Status s = check_forms(ir); !s.ok()) return s;
  const std::size_t n_ops = ir.ops.size();
  const std::size_t op_tag0 = ir.input_slots.size() + ir.const_inits.size();

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
    note_writer(ir.ops[k].out >> 1, op_tag0 + k);
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

  // Ops: level l is step l + 1.
  std::vector<std::size_t> step_writer(ir.slot_count, kNone);
  for (std::size_t l = 0; l + 1 < ir.level_offsets.size(); ++l) {
    const std::size_t begin = ir.level_offsets[l];
    const std::size_t end = ir.level_offsets[l + 1];
    const std::size_t step = l + 1;

    // --- const-overwrite / write-conflict: constants are materialized
    // once per executor, and no two ops of one step share a destination.
    for (std::size_t k = begin; k < end; ++k) {
      const std::uint32_t s = ir.ops[k].out >> 1;
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
    // op actually reads (per its form's arity) holds a value from an
    // earlier step. A slot this step also writes breaks level_ops() slicing.
    for (std::size_t k = begin; k < end; ++k) {
      const CompiledOp& op = ir.ops[k];
      for (int j = 0; j < rail_form_arity(op.form); ++j) {
        const std::uint32_t s = op.in[static_cast<std::size_t>(j)] >> 1;
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

    // --- clobber: dead-node elimination leaves only values something
    // consumes — a reader, or an output at the end — so overwriting one
    // that was never read loses a live value to slot reuse.
    for (std::size_t k = begin; k < end; ++k) {
      const std::uint32_t s = ir.ops[k].out >> 1;
      if (holder[s] != kNone && !was_read[s]) {
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
  for (std::size_t o = 0; o < ir.output_rails.size(); ++o) {
    if (holder[ir.output_rails[o] >> 1] == kNone) {
      return fail("unwritten-output",
                  "output #" + std::to_string(o) + " rail " +
                      slot_str(ir.output_rails[o]) + " has no writer");
    }
  }
  for (std::size_t s = 0; s < ir.slot_count; ++s) {
    if (first_writer[s] == kNone) {
      return fail("unwritten-slot",
                  "slot " + std::to_string(s) +
                      " has no writer (the allocation left a hole)");
    }
  }

  // --- orphan-op: after dead-node elimination every op must be
  // transitively reachable from a declared output. One reverse pass over
  // the stream tracks which slots hold a value something later needs; an
  // op's write ends the need for whatever its slot held before.
  std::vector<char> needed(ir.slot_count, 0);
  for (const std::uint32_t r : ir.output_rails) needed[r >> 1] = 1;
  for (std::size_t k = n_ops; k-- > 0;) {
    const CompiledOp& op = ir.ops[k];
    if (!needed[op.out >> 1]) {
      return fail("orphan-op", "op #" + std::to_string(k) + " (out rail " +
                                   slot_str(op.out) +
                                   ") is unreachable from every declared "
                                   "output");
    }
    needed[op.out >> 1] = 0;
    for (int j = 0; j < rail_form_arity(op.form); ++j) {
      needed[op.in[static_cast<std::size_t>(j)] >> 1] = 1;
    }
  }

  return Status();
}

Status verify_ir(const CompiledProgram& prog) {
  return verify_ir(ir_image_of(prog));
}

Status verify_netlist_replay(const IrImage& ir, const Netlist& nl) {
  if (Status s = check_bounds(ir); !s.ok()) return s;
  if (Status s = check_forms(ir); !s.ok()) return s;
  if (ir.input_slots.size() != nl.inputs().size() ||
      ir.output_rails.size() != nl.outputs().size()) {
    return fail("netlist-replay",
                "program has " + std::to_string(ir.input_slots.size()) +
                    " inputs and " + std::to_string(ir.output_rails.size()) +
                    " outputs, the netlist " +
                    std::to_string(nl.inputs().size()) + " and " +
                    std::to_string(nl.outputs().size()));
  }
  using Leaf = RailExprTable::Leaf;
  RailExprTable t;
  const auto constant = [&t](Trit v) {
    return DualRail{t.all(v != Trit::one), t.all(v != Trit::zero)};
  };
  const auto input = [&t](std::size_t i) {
    const auto index = static_cast<std::uint32_t>(i);
    return DualRail{t.leaf(Leaf::input_can0, index),
                    t.leaf(Leaf::input_can1, index)};
  };

  // What every netlist node computes, by its cell's dual-rail formula.
  const std::vector<GateNode>& nodes = nl.nodes();
  CellRails cells(t);
  std::vector<DualRail> want(nodes.size());
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    want[nl.inputs()[i]] = input(i);
  }
  for (NodeId id = 0; id < nodes.size(); ++id) {
    const GateNode& g = nodes[id];
    if (g.kind == CellKind::const0 || g.kind == CellKind::const1) {
      want[id] = constant(g.kind == CellKind::const1 ? Trit::one : Trit::zero);
    } else if (is_gate(g.kind)) {
      const int pins = cell_arity(g.kind);
      std::array<DualRail, 3> in{};
      for (int j = 0; j < pins; ++j) {
        in[static_cast<std::size_t>(j)] = want[g.in[j]];
      }
      want[id] = cells.eval(g.kind, in[0], in[1], in[2]);
    }
  }

  // What the program leaves on each rail, starting from "never written",
  // by the three forms' kernels (compile.hpp).
  std::vector<std::uint32_t> r(2 * ir.slot_count,
                               t.leaf(Leaf::unwritten, 0));
  const auto store = [&r](std::uint32_t slot, DualRail v) {
    r[2 * slot] = v.can0;
    r[2 * slot + 1] = v.can1;
  };
  for (const CompiledProgram::ConstInit& c : ir.const_inits) {
    store(c.slot, constant(c.value));
  }
  for (std::size_t i = 0; i < ir.input_slots.size(); ++i) {
    if (ir.input_slots[i] != CompiledProgram::kNoSlot) {
      store(ir.input_slots[i], input(i));
    }
  }
  for (const CompiledOp& op : ir.ops) {
    const std::uint32_t a = op.in[0];
    const std::uint32_t b = op.in[1];
    const std::uint32_t c = op.in[2];
    DualRail d{};
    switch (op.form) {
      case RailForm::and2:
        d = {t.or_(r[a], r[b]), t.and_(r[a ^ 1u], r[b ^ 1u])};
        break;
      case RailForm::ao21:
        d = {t.and_(t.or_(r[a], r[b]), r[c]),
             t.or_(t.and_(r[a ^ 1u], r[b ^ 1u]), r[c ^ 1u])};
        break;
      case RailForm::mux2:
        d = {t.or_(t.and_(r[c], r[a]), t.and_(r[c ^ 1u], r[b])),
             t.or_(t.and_(r[c], r[a ^ 1u]), t.and_(r[c ^ 1u], r[b ^ 1u]))};
        break;
    }
    r[op.out] = d.can0;
    r[op.out ^ 1u] = d.can1;
  }

  for (std::size_t o = 0; o < ir.output_rails.size(); ++o) {
    const std::uint32_t rail = ir.output_rails[o];
    if (DualRail{r[rail], r[rail ^ 1u]} != want[nl.outputs()[o].node]) {
      return fail("netlist-replay",
                  "output #" + std::to_string(o) + " ('" +
                      nl.outputs()[o].name + "', rail " + slot_str(rail) +
                      ") does not end holding the netlist's rail "
                      "expressions for node " +
                      std::to_string(nl.outputs()[o].node));
    }
  }
  return Status();
}

Status verify_netlist_replay(const CompiledProgram& prog, const Netlist& nl) {
  return verify_netlist_replay(ir_image_of(prog), nl);
}

}  // namespace mcsn
