#pragma once
// Compiled netlist evaluation: lowers a Netlist into a flat, levelized
// instruction stream executed by one templated engine over pluggable lane
// backends.
//
// The node-walking evaluators in eval.hpp re-dispatch on CellKind per node
// and chase GateNode fanins through the full node array on every call.
// CompiledProgram pays those costs once:
//
//   * dead-node elimination  — gates no output depends on are dropped;
//   * levelization           — gates are scheduled by logic level; ops within
//                              one level are mutually independent (level_ops()
//                              exposes the slices);
//   * liveness slot reuse    — a value's slot is recycled once its last
//                              reader's level has run, so an executor holds
//                              the widest set of simultaneously live values
//                              (a few hundred slots for 10x8), not one slot
//                              per gate;
//   * constant folding into initialization — tie cells are materialized once
//                              per executor, not re-evaluated per run.
//
// One CompiledProgram serves every backend width: the scalar Trit backend,
// the 64-lane PackedTrit backend, and the 256-lane PackedTrit256 backend.
// BatchEvaluator packs any number of input vectors into 256-lane groups
// and shards the groups across a persistent ThreadPool (injected or lazily
// owned — never a std::thread spawn per run()).

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "mcsn/core/packed.hpp"
#include "mcsn/core/word.hpp"
#include "mcsn/netlist/cell.hpp"
#include "mcsn/netlist/netlist.hpp"
#include "mcsn/util/thread_pool.hpp"

namespace mcsn {

/// One lowered gate: dst/src are dense slot indices, not NodeIds.
struct CompiledOp {
  CellKind kind = CellKind::inv;
  std::uint32_t out = 0;
  std::array<std::uint32_t, 3> in{0, 0, 0};
};

struct CompileOptions {
  /// Drop gates that no output transitively depends on.
  bool eliminate_dead = true;
  /// Keep slot == NodeId for every node (implies no dead-node elimination
  /// and no slot reuse). Used by the eval.hpp compatibility wrappers, whose
  /// API exposes values for all nodes indexable by NodeId.
  bool retain_all_nodes = false;
  /// Group the instruction stream by logic level (enables level_ops()
  /// parallel slicing). Creation order (false) can have better operand
  /// locality for narrow scalar replay; level order is the default for the
  /// wide batch backends. Either order is a valid topological schedule.
  bool levelize = true;
};

class CompiledProgram {
 public:
  /// Slot index marking a dead (eliminated) input.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  struct ConstInit {
    std::uint32_t slot = 0;
    Trit value = Trit::zero;
  };

  [[nodiscard]] static CompiledProgram compile(const Netlist& nl,
                                               const CompileOptions& opt = {});

  /// Size of the value buffer an executor must provide: the node count
  /// under retain_all_nodes, else the peak number of simultaneously live
  /// values (pinned constants and outputs included).
  [[nodiscard]] std::size_t slot_count() const noexcept { return slot_count_; }

  [[nodiscard]] std::size_t input_count() const noexcept {
    return input_slots_.size();
  }
  [[nodiscard]] std::size_t output_count() const noexcept {
    return output_slots_.size();
  }

  /// Lowered gates in schedule (level, creation) order.
  [[nodiscard]] std::span<const CompiledOp> ops() const noexcept {
    return ops_;
  }

  /// Number of logic levels (depth of the scheduled gate DAG). Zero when
  /// the program was compiled with levelize = false.
  [[nodiscard]] std::size_t level_count() const noexcept {
    return level_offsets_.empty() ? 0 : level_offsets_.size() - 1;
  }

  /// Ops of one level (0-based). All ops within a level are independent of
  /// each other — safe to execute concurrently.
  [[nodiscard]] std::span<const CompiledOp> level_ops(
      std::size_t level) const {
    assert(level + 1 < level_offsets_.size());
    return std::span<const CompiledOp>(ops_).subspan(
        level_offsets_[level], level_offsets_[level + 1] - level_offsets_[level]);
  }

  /// Slot of primary input i (creation order); kNoSlot if the input is dead.
  [[nodiscard]] std::span<const std::uint32_t> input_slots() const noexcept {
    return input_slots_;
  }

  /// Slot of output o (mark_output order).
  [[nodiscard]] std::span<const std::uint32_t> output_slots() const noexcept {
    return output_slots_;
  }

  /// Constant cells, materialized once per executor.
  [[nodiscard]] std::span<const ConstInit> const_inits() const noexcept {
    return const_inits_;
  }

  /// Gates surviving dead-node elimination.
  [[nodiscard]] std::size_t live_gate_count() const noexcept {
    return ops_.size();
  }

 private:
  std::size_t slot_count_ = 0;
  std::vector<CompiledOp> ops_;
  std::vector<std::size_t> level_offsets_;  // level l ops: [l], [l+1])
  std::vector<std::uint32_t> input_slots_;
  std::vector<std::uint32_t> output_slots_;
  std::vector<ConstInit> const_inits_;
};

// --- Lane backends ----------------------------------------------------------
//
// A backend supplies the value type for one executor lane group plus splat /
// eval / lane accessors. kLanes is the number of independent input vectors
// one run evaluates.

struct ScalarBackend {
  using Value = Trit;
  static constexpr int kLanes = 1;
  [[nodiscard]] static constexpr Value splat(Trit t) noexcept { return t; }
  [[nodiscard]] static constexpr Value eval(CellKind k, Value a, Value b,
                                            Value c) noexcept {
    return cell_eval(k, a, b, c);
  }
  [[nodiscard]] static constexpr Trit get_lane(const Value& v, int) noexcept {
    return v;
  }
  static constexpr void set_lane(Value& v, int, Trit t) noexcept { v = t; }
};

struct Packed64Backend {
  using Value = PackedTrit;
  static constexpr int kLanes = 64;
  [[nodiscard]] static constexpr Value splat(Trit t) noexcept {
    return PackedTrit::splat(t);
  }
  [[nodiscard]] static constexpr Value eval(CellKind k, Value a, Value b,
                                            Value c) noexcept {
    return cell_eval_packed(k, a, b, c);
  }
  [[nodiscard]] static constexpr Trit get_lane(const Value& v,
                                               int lane) noexcept {
    return v.lane(lane);
  }
  static constexpr void set_lane(Value& v, int lane, Trit t) noexcept {
    v.set_lane(lane, t);
  }
};

struct Packed256Backend {
  using Value = PackedTrit256;
  static constexpr int kLanes = PackedTrit256::kLanes;
  [[nodiscard]] static constexpr Value splat(Trit t) noexcept {
    return PackedTrit256::splat(t);
  }
  [[nodiscard]] static constexpr Value eval(CellKind k, const Value& a,
                                            const Value& b,
                                            const Value& c) noexcept {
    return cell_eval_wide(k, a, b, c);
  }
  [[nodiscard]] static constexpr Trit get_lane(const Value& v,
                                               int lane) noexcept {
    return v.lane(lane);
  }
  static constexpr void set_lane(Value& v, int lane, Trit t) noexcept {
    v.set_lane(lane, t);
  }
};

// --- Templated executor -----------------------------------------------------

/// Executes a CompiledProgram over one lane backend. Non-owning: the program
/// must outlive the executor. Reusable; the slot buffer is allocated once.
template <class Backend>
class CompiledExecutor {
 public:
  using Value = typename Backend::Value;

  explicit CompiledExecutor(const CompiledProgram& prog)
      : prog_(&prog), slots_(prog.slot_count()) {
    for (const CompiledProgram::ConstInit& c : prog_->const_inits()) {
      slots_[c.slot] = Backend::splat(c.value);
    }
  }

  /// `inputs` are assigned to primary inputs in creation order (one Value
  /// per input, each carrying Backend::kLanes independent vectors). Returns
  /// the full slot buffer, valid until the next run(); it is indexable by
  /// NodeId only for retain_all_nodes programs, since dense programs reuse
  /// slots.
  std::span<const Value> run(std::span<const Value> inputs) {
    const std::span<const std::uint32_t> in_slots = prog_->input_slots();
    assert(inputs.size() == in_slots.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (in_slots[i] != CompiledProgram::kNoSlot) {
        slots_[in_slots[i]] = inputs[i];
      }
    }
    Value* const s = slots_.data();
    for (const CompiledOp& op : prog_->ops()) {
      s[op.out] = Backend::eval(op.kind, s[op.in[0]], s[op.in[1]], s[op.in[2]]);
    }
    return slots_;
  }

  /// Full slot buffer from the last run (same span run() returned).
  [[nodiscard]] std::span<const Value> values() const noexcept {
    return slots_;
  }

  /// Value of output o (mark_output order) from the last run.
  [[nodiscard]] const Value& output(std::size_t o) const {
    return slots_[prog_->output_slots()[o]];
  }

  /// Lane `lane` of output o from the last run.
  [[nodiscard]] Trit output_lane(std::size_t o, int lane) const {
    return Backend::get_lane(output(o), lane);
  }

  [[nodiscard]] const CompiledProgram& program() const noexcept {
    return *prog_;
  }

 private:
  const CompiledProgram* prog_;
  std::vector<Value> slots_;
};

// --- Batch evaluation -------------------------------------------------------

struct BatchOptions {
  /// Parallelism target: 0 = auto (hardware concurrency), 1 = serial.
  /// run_flat() shards 256-lane groups over this many threads, capped by
  /// the group count.
  int threads = 0;
  /// Executor pool shared with other owners (e.g. one pool for a whole
  /// SortService). When null and the effective parallelism exceeds 1, the
  /// evaluator lazily creates a private pool on first parallel run() and
  /// keeps it — run() never constructs threads per call either way.
  std::shared_ptr<ThreadPool> pool;
};

/// High-throughput evaluation of many input vectors: packs them into
/// 256-lane groups, runs the compiled program per group, and unpacks the
/// outputs, sharding the groups across a persistent ThreadPool when there
/// is more than one. Thread-safe: concurrent run() calls share the pool.
class BatchEvaluator {
 public:
  explicit BatchEvaluator(const Netlist& nl, const BatchOptions& opt = {});

  BatchEvaluator(BatchEvaluator&& other) noexcept;
  BatchEvaluator& operator=(BatchEvaluator&& other) noexcept;

  [[nodiscard]] std::size_t input_width() const noexcept {
    return prog_.input_count();
  }
  [[nodiscard]] std::size_t output_width() const noexcept {
    return prog_.output_count();
  }
  [[nodiscard]] const CompiledProgram& program() const noexcept {
    return prog_;
  }

  /// The pool run() distributes onto, or nullptr while still serial (no
  /// parallel run() happened yet and none was injected).
  [[nodiscard]] const ThreadPool* pool() const noexcept {
    std::lock_guard lock(pool_mu_);
    return pool_.get();
  }

  /// `inputs` holds N input vectors back to back (N x input_width()
  /// trits, vector-major) and results are written into `outputs`
  /// (N x output_width() trits). Packing reads and unpacking writes go
  /// straight between the flat buffers and the wide lanes; a trailing
  /// partial lane group is handled transparently. Preconditions
  /// (asserted): inputs.size() divisible by input_width(), outputs sized
  /// to match.
  void run_flat(std::span<const Trit> inputs, std::span<Trit> outputs) const;

  /// Word-level wrapper over run_flat(): each element of `inputs` is one
  /// input vector of width input_width(). Flattens once and returns one
  /// output Word (width output_width()) per input vector, in order.
  [[nodiscard]] std::vector<Word> run(std::span<const Word> inputs) const;

 private:
  /// The shared pool, creating the lazily-owned one on first need.
  [[nodiscard]] ThreadPool* acquire_pool() const;

  CompiledProgram prog_;
  int parallel_ = 1;
  // Injected pool, or the lazily-created owned one: guarded so that
  // concurrent const run() calls race safely on first use.
  mutable std::mutex pool_mu_;
  mutable std::shared_ptr<ThreadPool> pool_;
};

}  // namespace mcsn
