#pragma once
// Compiled netlist evaluation: lowers a Netlist into a flat, levelized
// dual-rail instruction stream executed by one templated engine over
// pluggable lane backends.
//
// The node-walking evaluators in eval.hpp re-dispatch on CellKind per node
// and chase GateNode fanins through the full node array on every call.
// CompiledProgram pays those costs once:
//
//   * dead-node elimination  — gates no output depends on are dropped;
//   * rail lowering          — every cell becomes one of three dual-rail
//                              forms (table below) and inverters vanish;
//   * levelization           — gates are scheduled by logic level; ops within
//                              one level are mutually independent (level_ops()
//                              exposes the slices) and grouped by form;
//   * liveness slot reuse    — a value's slot is recycled once its last
//                              reader's level has run, so an executor holds
//                              the widest set of simultaneously live values
//                              (a few hundred slots for 10x8), not one slot
//                              per gate;
//   * constant folding into initialization — tie cells are materialized once
//                              per executor, not re-evaluated per run.
//
// Rail indices. A value lives in a slot as two rails (core/packed.hpp):
// rail 2*slot is its can0 rail, rail 2*slot + 1 its can1 rail. Every op
// operand, every op destination and every output is a rail index
// 2*slot + polarity, and reading rail r ^ 1 instead of r reads the
// complement. An inverter therefore costs no op: compile() resolves each
// node to its root (the nearest non-inverter) and a polarity in its
// forward level pass, and the inverter's readers take the root's other
// rail. A gate's slot always holds the gate's own value; the destination
// polarity says which rail of that slot the form's can0 result lands on.
//
// Lowering table. Every other cell lowers exactly into one form (~x is
// the rail x ^ 1; + writes the form's can0 result to rail 2*slot, - to
// rail 2*slot + 1):
//
//   netlist cell      form   operands       destination
//   and2 / nand2      and2   a, b           + / -
//   or2 / nor2        and2   ~a, ~b         - / +
//   ao21 / aoi21      ao21   a, b, c        + / -
//   oa21 / oai21      ao21   ~a, ~b, ~c     - / +
//   mux2(a, b, s)     mux2   a, b, s        +
//   xor2 / xnor2      mux2   b, ~b, a       + / -
//
// The executor runs one branch-free kernel per form over the rail array r:
//
//   and2(a, b):    r[d] = r[a] | r[b];  r[d^1] = r[a^1] & r[b^1]
//   ao21(a, b, c): r[d] = (r[a] | r[b]) & r[c];
//                  r[d^1] = (r[a^1] & r[b^1]) | r[c^1]
//   mux2(a, b, s): r[d] = (r[s] & r[a]) | (r[s^1] & r[b]);
//                  r[d^1] = (r[s] & r[a^1]) | (r[s^1] & r[b^1])
//
// These are the cells' metastable closures (Kleene semantics): and2 and
// ao21 read every pin once, and mux2(b, ~b, a) is xor2's dual-rail formula
// lane for lane. The MC sorters are built from INV, AND2 and OR2 only, so
// their whole program is and2 ops. form_runs() cuts the stream into
// maximal one-form stretches, and the executor dispatches once per stretch.
//
// One CompiledProgram serves every backend width: the 64-lane PackedTrit
// backend and the 256-lane PackedTrit256 backend. BatchEvaluator packs any
// number of input vectors into 256-lane groups and shards the groups across
// a persistent ThreadPool (injected or lazily owned — never a std::thread
// spawn per run()).

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "mcsn/core/packed.hpp"
#include "mcsn/core/word.hpp"
#include "mcsn/netlist/cell.hpp"
#include "mcsn/netlist/netlist.hpp"
#include "mcsn/util/thread_pool.hpp"

namespace mcsn {

/// The three dual-rail op forms every cell lowers to (table above).
enum class RailForm : std::uint8_t {
  and2,  // a & b
  ao21,  // (a & b) | c
  mux2,  // s ? b : a     (operands a, b, s)
};

inline constexpr int kRailFormCount = 3;

/// Operand pins a form reads.
[[nodiscard]] constexpr int rail_form_arity(RailForm f) noexcept {
  return f == RailForm::and2 ? 2 : 3;
}

/// One lowered gate: `out` and `in` are rail indices (2 * slot + polarity),
/// not NodeIds. and2 leaves in[2] at rail 0 and never reads it.
struct CompiledOp {
  RailForm form = RailForm::and2;
  std::uint32_t out = 0;
  std::array<std::uint32_t, 3> in{0, 0, 0};
};

/// A maximal stretch of one form in the op stream: the ops from the
/// previous run's end (0 for the first run) up to `end`.
struct FormRun {
  RailForm form = RailForm::and2;
  std::uint32_t end = 0;
};

class CompiledProgram {
 public:
  /// Slot index marking a dead (eliminated) input.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  struct ConstInit {
    std::uint32_t slot = 0;
    Trit value = Trit::zero;
  };

  /// The one program form every caller runs: dead gates eliminated, ops
  /// levelized and slots reused by liveness (header comment above).
  [[nodiscard]] static CompiledProgram compile(const Netlist& nl);

  /// Number of value slots (two rails each) an executor must provide: the
  /// peak number of simultaneously live values (pinned constants and
  /// outputs included).
  [[nodiscard]] std::size_t slot_count() const noexcept { return slot_count_; }

  [[nodiscard]] std::size_t input_count() const noexcept {
    return input_slots_.size();
  }
  [[nodiscard]] std::size_t output_count() const noexcept {
    return output_rails_.size();
  }

  /// Lowered gates in schedule (level, form, creation) order.
  [[nodiscard]] std::span<const CompiledOp> ops() const noexcept {
    return ops_;
  }

  /// The op stream cut into maximal one-form runs, in stream order; the
  /// executor dispatches once per run.
  [[nodiscard]] std::span<const FormRun> form_runs() const noexcept {
    return form_runs_;
  }

  /// Number of logic levels (depth of the scheduled gate DAG). Zero when
  /// the program has no ops.
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
  /// Inputs are stored in positive polarity.
  [[nodiscard]] std::span<const std::uint32_t> input_slots() const noexcept {
    return input_slots_;
  }

  /// Rail of output o (mark_output order): odd when the output reads its
  /// root through an odd number of inverters.
  [[nodiscard]] std::span<const std::uint32_t> output_rails() const noexcept {
    return output_rails_;
  }

  /// Constant cells, materialized once per executor in positive polarity.
  [[nodiscard]] std::span<const ConstInit> const_inits() const noexcept {
    return const_inits_;
  }

  /// Ops in the program: gates surviving dead-node elimination, minus the
  /// inverters the rail lowering absorbs.
  [[nodiscard]] std::size_t live_gate_count() const noexcept {
    return ops_.size();
  }

 private:
  std::size_t slot_count_ = 0;
  std::vector<CompiledOp> ops_;
  std::vector<FormRun> form_runs_;
  std::vector<std::size_t> level_offsets_;  // level l ops: [l], [l+1])
  std::vector<std::uint32_t> input_slots_;
  std::vector<std::uint32_t> output_rails_;
  std::vector<ConstInit> const_inits_;
};

// --- Lane backends ----------------------------------------------------------
//
// A backend names the value type of one executor lane group and its rail
// type (one value is its can0 rail then its can1 rail), plus splat and a
// lane writer for packing. kLanes is the number of independent input
// vectors one run evaluates.

struct Packed64Backend {
  using Value = PackedTrit;
  using Rail = std::uint64_t;
  static constexpr int kLanes = 64;
  [[nodiscard]] static constexpr Value splat(Trit t) noexcept {
    return PackedTrit::splat(t);
  }
  static constexpr void set_lane(Value& v, int lane, Trit t) noexcept {
    v.set_lane(lane, t);
  }
};

struct Packed256Backend {
  using Value = PackedTrit256;
  using Rail = Rail256;
  static constexpr int kLanes = PackedTrit256::kLanes;
  [[nodiscard]] static constexpr Value splat(Trit t) noexcept {
    return PackedTrit256::splat(t);
  }
  static constexpr void set_lane(Value& v, int lane, Trit t) noexcept {
    v.set_lane(lane, t);
  }
};

// --- Rail kernels -----------------------------------------------------------
//
// One per form, over the executor's rail array. Each loads every operand
// rail before it stores, so no store can feed a load of the same op.

namespace rail_kernel {

template <class Rail>
inline void and2(Rail* r, const CompiledOp& op) noexcept {
  const std::uint32_t a = op.in[0];
  const std::uint32_t b = op.in[1];
  const Rail can0 = r[a] | r[b];
  const Rail can1 = r[a ^ 1u] & r[b ^ 1u];
  r[op.out] = can0;
  r[op.out ^ 1u] = can1;
}

template <class Rail>
inline void ao21(Rail* r, const CompiledOp& op) noexcept {
  const std::uint32_t a = op.in[0];
  const std::uint32_t b = op.in[1];
  const std::uint32_t c = op.in[2];
  const Rail can0 = (r[a] | r[b]) & r[c];
  const Rail can1 = (r[a ^ 1u] & r[b ^ 1u]) | r[c ^ 1u];
  r[op.out] = can0;
  r[op.out ^ 1u] = can1;
}

template <class Rail>
inline void mux2(Rail* r, const CompiledOp& op) noexcept {
  const std::uint32_t a = op.in[0];
  const std::uint32_t b = op.in[1];
  const std::uint32_t s = op.in[2];
  const Rail can0 = (r[s] & r[a]) | (r[s ^ 1u] & r[b]);
  const Rail can1 = (r[s] & r[a ^ 1u]) | (r[s ^ 1u] & r[b ^ 1u]);
  r[op.out] = can0;
  r[op.out ^ 1u] = can1;
}

/// One form's kernel over the ops [op, end). Kept out of line: with all
/// three loops inlined into one function, GCC keeps the 32-byte Rail256
/// results on the stack, and composed 64x16 evaluation runs ~25% slower.
template <class Rail, void (*Kernel)(Rail*, const CompiledOp&) noexcept>
[[gnu::noinline]] void run_form(Rail* r, const CompiledOp* op,
                                const CompiledOp* end) noexcept {
  for (; op != end; ++op) Kernel(r, *op);
}

/// Runs `ops` over the rail array `r`, one kernel loop per form run.
template <class Rail>
void run_ops(Rail* r, const CompiledOp* ops,
             std::span<const FormRun> runs) noexcept {
  const CompiledOp* op = ops;
  for (const FormRun& run : runs) {
    const CompiledOp* const end = ops + run.end;
    switch (run.form) {
      case RailForm::and2: run_form<Rail, and2<Rail>>(r, op, end); break;
      case RailForm::ao21: run_form<Rail, ao21<Rail>>(r, op, end); break;
      case RailForm::mux2: run_form<Rail, mux2<Rail>>(r, op, end); break;
    }
    op = end;
  }
}

}  // namespace rail_kernel

// --- Templated executor -----------------------------------------------------

/// Executes a CompiledProgram over one lane backend. Non-owning: the program
/// must outlive the executor. Reusable; the rail array is allocated once.
template <class Backend>
class CompiledExecutor {
 public:
  using Value = typename Backend::Value;
  using Rail = typename Backend::Rail;

  explicit CompiledExecutor(const CompiledProgram& prog)
      : prog_(&prog), rails_(2 * prog.slot_count()) {
    for (const CompiledProgram::ConstInit& c : prog_->const_inits()) {
      store(c.slot, Backend::splat(c.value));
    }
  }

  /// `inputs` are assigned to primary inputs in creation order (one Value
  /// per input, each carrying Backend::kLanes independent vectors). Throws
  /// std::invalid_argument unless there is exactly one Value per input.
  void run(std::span<const Value> inputs) {
    const std::span<const std::uint32_t> in_slots = prog_->input_slots();
    if (inputs.size() != in_slots.size()) {
      throw std::invalid_argument(
          "CompiledExecutor::run: got " + std::to_string(inputs.size()) +
          " input values, the program has " +
          std::to_string(in_slots.size()) + " inputs");
    }
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (in_slots[i] != CompiledProgram::kNoSlot) {
        store(in_slots[i], inputs[i]);
      }
    }
    rail_kernel::run_ops(rails_.data(), prog_->ops().data(),
                         prog_->form_runs());
  }

  /// Lane `lane` of output o from the last run.
  [[nodiscard]] Trit output_lane(std::size_t o, int lane) const {
    const std::uint32_t rail = prog_->output_rails()[o];
    return trit_from_rails(rail_bit(rails_[rail], lane),
                           rail_bit(rails_[rail ^ 1u], lane));
  }

  [[nodiscard]] const CompiledProgram& program() const noexcept {
    return *prog_;
  }

 private:
  void store(std::uint32_t slot, const Value& v) {
    rails_[2 * slot] = v.can0;
    rails_[2 * slot + 1] = v.can1;
  }

  const CompiledProgram* prog_;
  std::vector<Rail> rails_;
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
  /// partial lane group is handled transparently. Throws
  /// std::invalid_argument unless inputs.size() is a whole number N of
  /// input vectors and outputs.size() is exactly N x output_width().
  void run_flat(std::span<const Trit> inputs, std::span<Trit> outputs) const;

  /// Word-level wrapper over run_flat(): each element of `inputs` is one
  /// input vector of width input_width(). Flattens once and returns one
  /// output Word (width output_width()) per input vector, in order.
  /// Throws std::invalid_argument if any Word has another width.
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
