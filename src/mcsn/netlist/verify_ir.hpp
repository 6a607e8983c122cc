#pragma once
// Verifier for the compiled netlist IR.
//
// CompiledProgram is the trusted core of every execution path — the lane
// backends replay its instruction stream with zero per-op checking, so a
// malformed program (an out-of-range slot, an operand scheduled after its
// reader, a live value overwritten by slot reuse) is silent memory
// corruption or a wrong sort, not an error message. Two passes make the
// compiler's promises checked instead of assumed.
//
// verify_ir() checks structure, against the one program form compile()
// produces: dead gates eliminated, ops levelized, slots reused. It replays
// the schedule in steps: const inits and live inputs are written at step
// 0, and level l (0-based) is step l + 1. Ops address rails (2 * slot +
// polarity, compile.hpp); the step checks work on the slot a rail belongs
// to.
//
//   * levels         — level_offsets is a monotone partition of the ops,
//                      {0} when there are none;
//   * bounds         — every slot index (inputs, const inits) is
//                      < slot_count() and every rail index (outputs, op
//                      operands and destinations) is < 2 * slot_count();
//   * rail forms     — every op is one of the three forms and2, ao21,
//                      mux2, and the form runs the executor dispatches on
//                      partition the stream, each holding ops of its own
//                      form only;
//   * read order     — every operand an op actually reads (its form's
//                      arity) holds a value written at an earlier step;
//   * independence   — no two ops of one step write the same slot, and no
//                      op writes a slot its step reads, so level_ops()
//                      slices may run concurrently;
//   * pinned consts  — nothing overwrites a constant's slot (constants are
//                      materialized once per executor, not per run);
//   * no clobber     — no value is overwritten before it is read (an
//                      output counts as read at the end);
//   * coverage       — every declared output and every slot has a writer,
//                      and every op is transitively reachable from an
//                      output, i.e. dead-node elimination left no orphan
//                      ops.
//
// Slots are reused (compile.hpp), so one slot carries many values over a
// run, and structure alone cannot say which value a read means or whether
// a rail is read in the right polarity. verify_netlist_replay() checks
// that over hash-consed rail expressions: AND and OR over leaves, where
// each primary input contributes its can0 and can1 rails and constants
// are all-zero or all-one rails. The netlist side builds every cell from
// its dual-rail formula (the packed_* rules of core/packed.hpp), the
// program side runs the three forms' kernels, and every output rail pair
// must end holding exactly its netlist output's pair. AND and OR are
// matched up to commutativity and idempotence (x & x = x), nothing more.
// A wrong lowering, a swapped pin, a flipped operand polarity or a value
// reused too early fails it even when the structure is sound. The replay
// walks the op stream in order, so of the structure it checks only bounds
// and forms.
//
// Each violated invariant produces a distinct, greppable diagnostic token
// in the Status message ("slot-bounds", "level-structure", "bad-op",
// "const-overwrite", "write-conflict", "operand-level", "dangling-read",
// "operand-order", "clobber", "unwritten-output", "unwritten-slot",
// "orphan-op", "netlist-replay") with the offending indices — precise
// enough that a failed CI sweep names the broken op.
//
// Both passes run automatically at the end of CompiledProgram::compile()
// in debug builds and in sanitizer builds (MCSN_VERIFY, defined by CMake
// whenever MCSN_SANITIZE is set); release builds pay nothing. They are
// also exposed as `tool_mcsverify`, which sweeps the whole catalog plus
// composed/PPC-elaborated networks, one compiled program each.
//
// IrImage exists for negative testing: CompiledProgram's fields are
// private and compile() only ever produces valid programs, so the
// mutation suite (tests/verify_ir_test.cpp) perturbs an owning snapshot
// instead — one mutator per invariant class proves each check actually
// fires, with its own diagnostic.

#include <cstdint>
#include <vector>

#include "mcsn/api/status.hpp"
#include "mcsn/netlist/compile.hpp"
#include "mcsn/netlist/netlist.hpp"

namespace mcsn {

/// An owning, mutable snapshot of a CompiledProgram's structure — same
/// fields, public. Extract with ir_image_of(), perturb freely, verify.
struct IrImage {
  std::size_t slot_count = 0;
  std::vector<CompiledOp> ops;
  std::vector<FormRun> form_runs;
  /// Level l's ops are [level_offsets[l], level_offsets[l + 1]): one
  /// entry more than there are levels.
  std::vector<std::size_t> level_offsets;
  std::vector<std::uint32_t> input_slots;   // kNoSlot = dead input
  std::vector<std::uint32_t> output_rails;
  std::vector<CompiledProgram::ConstInit> const_inits;
};

/// Snapshot of `prog` for mutation testing / standalone verification.
[[nodiscard]] IrImage ir_image_of(const CompiledProgram& prog);

/// Checks every structural invariant above; OK, or the first violation
/// found with a precise diagnostic. Runs in O(slots + ops) time and memory.
[[nodiscard]] Status verify_ir(const IrImage& ir);

/// Convenience overload over a live program (snapshots internally).
[[nodiscard]] Status verify_ir(const CompiledProgram& prog);

/// Exact replay against the netlist `ir` was compiled from: OK iff every
/// output rail pair ends holding the hash-consed rail expressions of its
/// netlist output ("netlist-replay" otherwise; out-of-range indices fail
/// as "slot-bounds", unknown forms as "bad-op"). Runs in expected
/// O(nodes + ops) time.
[[nodiscard]] Status verify_netlist_replay(const IrImage& ir,
                                           const Netlist& nl);

/// Convenience overload over a live program (snapshots internally).
[[nodiscard]] Status verify_netlist_replay(const CompiledProgram& prog,
                                           const Netlist& nl);

}  // namespace mcsn
