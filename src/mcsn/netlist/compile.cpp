#include "mcsn/netlist/compile.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#if !defined(NDEBUG) || defined(MCSN_VERIFY)
#include <cstdio>
#include <cstdlib>

#include "mcsn/netlist/verify_ir.hpp"
#endif

namespace mcsn {
namespace {

/// Lowers gate `kind` over operand rails `in` (per cell_arity) into its
/// rail form, destination slot `slot` (the lowering table in compile.hpp).
/// The slot ends up holding the gate's own value in positive polarity.
constexpr CompiledOp lower(CellKind kind, std::array<std::uint32_t, 3> in,
                           std::uint32_t slot) noexcept {
  const std::uint32_t pos = 2 * slot;
  const std::uint32_t neg = pos + 1;
  const std::uint32_t a = in[0];
  const std::uint32_t b = in[1];
  const std::uint32_t c = in[2];
  switch (kind) {
    case CellKind::inv: return {RailForm::and2, pos, {a ^ 1u, a ^ 1u, 0}};
    case CellKind::and2: return {RailForm::and2, pos, {a, b, 0}};
    case CellKind::nand2: return {RailForm::and2, neg, {a, b, 0}};
    case CellKind::or2: return {RailForm::and2, neg, {a ^ 1u, b ^ 1u, 0}};
    case CellKind::nor2: return {RailForm::and2, pos, {a ^ 1u, b ^ 1u, 0}};
    case CellKind::ao21: return {RailForm::ao21, pos, {a, b, c}};
    case CellKind::aoi21: return {RailForm::ao21, neg, {a, b, c}};
    case CellKind::oa21:
      return {RailForm::ao21, neg, {a ^ 1u, b ^ 1u, c ^ 1u}};
    case CellKind::oai21:
      return {RailForm::ao21, pos, {a ^ 1u, b ^ 1u, c ^ 1u}};
    case CellKind::mux2: return {RailForm::mux2, pos, {a, b, c}};
    case CellKind::xor2: return {RailForm::mux2, pos, {b, b ^ 1u, a}};
    case CellKind::xnor2: return {RailForm::mux2, neg, {b, b ^ 1u, a}};
    default: return {};  // input/const: not gates, never lowered
  }
}

/// The form each CellKind lowers to, read off lower() itself.
constexpr std::array<RailForm, kCellKindCount> kFormOf = [] {
  std::array<RailForm, kCellKindCount> forms{};
  for (int k = 0; k < kCellKindCount; ++k) {
    forms[static_cast<std::size_t>(k)] =
        lower(static_cast<CellKind>(k), {}, 0).form;
  }
  return forms;
}();

constexpr RailForm rail_form_of(CellKind kind) noexcept {
  return kFormOf[static_cast<std::size_t>(kind)];
}

}  // namespace

CompiledProgram CompiledProgram::compile(const Netlist& nl,
                                         const CompileOptions& opt) {
  const std::vector<GateNode>& nodes = nl.nodes();
  const std::size_t n = nodes.size();
  const bool reuse_slots = !opt.retain_all_nodes;
  CompiledProgram p;

  // 1. Liveness: reverse reachability from the outputs (unless disabled),
  // in one backward sweep. Nodes are stored in topological order, so
  // every reader of a node comes after it and has marked it by the time
  // the sweep arrives.
  const bool keep_all = opt.retain_all_nodes || !opt.eliminate_dead;
  std::vector<char> live(n, keep_all ? 1 : 0);
  if (!keep_all) {
    for (const OutputPort& out : nl.outputs()) live[out.node] = 1;
    for (std::size_t id = n; id-- > 0;) {
      if (!live[id]) continue;
      const GateNode& g = nodes[id];
      const int arity = cell_arity(g.kind);
      for (int j = 0; j < arity; ++j) live[g.in[j]] = 1;
    }
  }

  // 2. Roots, polarities and logic levels, in one forward pass (nodes are
  // stored in topological order). ref[id] = 2 * root + polarity, where the
  // root is the nearest non-inverter node id reads through a chain of
  // inverters and the polarity is that chain's length mod 2. Inputs and
  // constants sit at level 0, a gate one past its deepest operand root; an
  // inverter shares its root's level. Nodes that become ops are the live
  // gates, inverters only under retain_all_nodes (one level after their
  // root); the pass counts them per schedule bucket 3 * (level - 1) +
  // form, so each level's ops run in at most three form runs. It also
  // lists the live constants, in node order.
  constexpr std::size_t kForms = kRailFormCount;
  std::vector<std::uint32_t> ref(n, 0);
  std::vector<std::uint32_t> level(n, 0);
  std::vector<std::size_t> bucket_start(1, 0);
  std::vector<NodeId> consts;
  std::size_t op_count = 0;
  std::uint32_t levels = 0;
  const auto count_op = [&](std::uint32_t op_level, CellKind kind) {
    ++op_count;
    if (!opt.levelize) return;
    levels = std::max(levels, op_level);
    const std::size_t b = kForms * (op_level - 1) +
                          static_cast<std::size_t>(rail_form_of(kind)) + 1;
    if (bucket_start.size() <= b) bucket_start.resize(b + 1, 0);
    ++bucket_start[b];
  };
  for (NodeId id = 0; id < n; ++id) {
    if (!live[id]) continue;
    const GateNode& g = nodes[id];
    if (g.kind == CellKind::inv) {
      ref[id] = ref[g.in[0]] ^ 1u;
      level[id] = level[g.in[0]];
      if (opt.retain_all_nodes) count_op(level[id] + 1, g.kind);
      continue;
    }
    ref[id] = 2 * id;
    const int arity = cell_arity(g.kind);
    if (arity == 0) {
      if (g.kind != CellKind::input) consts.push_back(id);
      continue;
    }
    std::uint32_t lv = 0;
    for (int j = 0; j < arity; ++j) lv = std::max(lv, level[g.in[j]]);
    level[id] = lv + 1;
    count_op(level[id], g.kind);
  }

  // 3. Schedule. Level order is a counting sort by (level, form), stable
  // in creation order; creation order keeps node order. Until step 4
  // lowers it in place, ops_ holds the schedule itself: op k's `out` is
  // its node id, `in` its operands' refs (so step 4 reads them in stream
  // order instead of chasing fanins through the node array), and
  // kinds[k] its cell kind.
  //
  // Time runs in steps: inputs are written at step 0, and an op at the
  // step of its level (in creation order, each op is its own step). With
  // slot reuse, the pass also finds the step after which each value's
  // slot may be released: its last reader's, or its own when nothing
  // reads it. A node's level is read only when the node itself is
  // placed, and its readers all come later, so release_step takes over
  // the level buffer in place; inputs and constants keep step 0.
  p.ops_.resize(op_count);
  std::vector<CellKind> kinds(op_count);
  if (opt.levelize) {
    bucket_start.resize(kForms * levels + 1, 0);
    for (std::size_t b = 1; b < bucket_start.size(); ++b) {
      bucket_start[b] += bucket_start[b - 1];
    }
    p.level_offsets_.resize(levels + 1);
    for (std::size_t l = 0; l <= levels; ++l) {
      p.level_offsets_[l] = bucket_start[kForms * l];
    }
  }
  std::vector<std::uint32_t>& release_step = level;
  for (NodeId id = 0, next = 0; id < n; ++id) {
    const GateNode& g = nodes[id];
    if (!live[id] || !is_gate(g.kind) ||
        (g.kind == CellKind::inv && !opt.retain_all_nodes)) {
      continue;
    }
    std::size_t pos = next++;
    auto step = static_cast<std::uint32_t>(next);
    if (opt.levelize) {
      step = level[id] + (g.kind == CellKind::inv ? 1u : 0u);
      pos = bucket_start[kForms * (step - 1) +
                         static_cast<std::size_t>(rail_form_of(g.kind))]++;
    }
    CompiledOp& op = p.ops_[pos];
    op.out = id;
    kinds[pos] = g.kind;
    if (reuse_slots) release_step[id] = step;
    const int arity = cell_arity(g.kind);
    for (int j = 0; j < arity; ++j) {
      const std::uint32_t r = ref[g.in[j]];
      op.in[static_cast<std::size_t>(j)] = r;
      if (reuse_slots) {
        release_step[r >> 1] = std::max(release_step[r >> 1], step);
      }
    }
  }
  std::vector<std::uint32_t> output_refs;
  output_refs.reserve(nl.outputs().size());
  for (const OutputPort& out : nl.outputs()) {
    output_refs.push_back(ref[out.node]);
  }
  // Step s's ops are [step_begin(s - 1), step_begin(s)): a level each, or
  // one op each in creation order.
  const std::size_t steps =
      opt.levelize ? p.level_offsets_.size() - 1 : op_count;
  const auto step_begin = [&](std::size_t s) {
    return opt.levelize ? p.level_offsets_[s] : s;
  };

  // 4. Slot assignment, over roots only (inverters read their root's
  // slot), in the same pass as lowering and form runs: each op is lowered
  // as soon as its destination slot is known. retain_all_nodes keeps the
  // identity mapping. The dense mode gives live inputs, then live
  // constants, the first slots and hands gates slots from a free list. A
  // value's slot returns to the list at the start of the step after its
  // release step (`freed` holds it until then), so no op ever writes a
  // slot another op of its step reads. Constants and outputs stay pinned;
  // input slots are reused like any other, since run() rewrites them. A
  // slot keeps its value from allocation until release, so slot_of is
  // each operand's slot at the time its reader runs. slot_of takes over
  // ref's buffer, which is dead by now.
  std::vector<std::uint32_t> slot_of = std::move(ref);
  // The rail of a node ref: its root's slot, in the ref's polarity.
  const auto rail_of = [&slot_of](std::uint32_t r) {
    return 2 * slot_of[r >> 1] + (r & 1u);
  };
  // kKept: a value whose slot is never released (or already was).
  constexpr std::uint32_t kKept = 0xffffffffu;
  std::vector<std::uint32_t> free_slots;
  std::vector<std::uint32_t> freed;  // released this step, free from the next
  const auto release = [&](NodeId id, std::uint32_t s) {
    if (release_step[id] == s) {
      freed.push_back(slot_of[id]);
      release_step[id] = kKept;
    }
  };
  std::uint32_t next_slot = 0;
  if (reuse_slots) {
    for (const std::uint32_t r : output_refs) release_step[r >> 1] = kKept;
    for (const NodeId id : nl.inputs()) {
      if (live[id]) slot_of[id] = next_slot++;
    }
    for (const NodeId id : consts) {
      slot_of[id] = next_slot++;
      release_step[id] = kKept;
    }
    for (const NodeId id : nl.inputs()) {
      if (live[id]) release(id, 0);
    }
    free_slots.swap(freed);
  } else {
    for (NodeId id = 0; id < n; ++id) slot_of[id] = id;
    next_slot = static_cast<std::uint32_t>(n);
  }
  for (std::size_t s = 1; s <= steps; ++s) {
    const auto step = static_cast<std::uint32_t>(s);
    for (std::size_t k = step_begin(s - 1); k < step_begin(s); ++k) {
      CompiledOp& op = p.ops_[k];
      const int arity = cell_arity(kinds[k]);
      std::array<std::uint32_t, 3> in{0, 0, 0};
      for (int j = 0; j < arity; ++j) {
        const auto pin = static_cast<std::size_t>(j);
        in[pin] = rail_of(op.in[pin]);
        if (reuse_slots) release(op.in[pin] >> 1, step);
      }
      const NodeId id = op.out;
      if (reuse_slots) {
        if (free_slots.empty()) {
          slot_of[id] = next_slot++;
        } else {
          slot_of[id] = free_slots.back();
          free_slots.pop_back();
        }
        release(id, step);
      }
      op = lower(kinds[k], in, slot_of[id]);
      if (p.form_runs_.empty() || p.form_runs_.back().form != op.form) {
        p.form_runs_.push_back({op.form, 0});
      }
      p.form_runs_.back().end = static_cast<std::uint32_t>(k + 1);
    }
    free_slots.insert(free_slots.end(), freed.begin(), freed.end());
    freed.clear();
  }
  p.slot_count_ = next_slot;

  // 5. Constant initializers, outputs (always live by construction) and
  // input slots.
  p.const_inits_.reserve(consts.size());
  for (const NodeId id : consts) {
    p.const_inits_.push_back(
        {slot_of[id],
         nodes[id].kind == CellKind::const1 ? Trit::one : Trit::zero});
  }
  p.output_rails_.reserve(output_refs.size());
  for (const std::uint32_t r : output_refs) {
    p.output_rails_.push_back(rail_of(r));
  }
  p.input_slots_.reserve(nl.inputs().size());
  for (const NodeId id : nl.inputs()) {
    p.input_slots_.push_back(live[id] ? slot_of[id] : kNoSlot);
  }

#if !defined(NDEBUG) || defined(MCSN_VERIFY)
  // Debug and sanitizer builds re-check the freshly lowered program (see
  // verify_ir.hpp): every structural invariant, then an exact replay
  // against the netlist. A failure here is a compiler bug, not a caller
  // error — abort loudly instead of handing an unchecked instruction
  // stream to the branch-free executors.
  Status s = verify_ir(p, verify_options_for(opt));
  if (s.ok()) s = verify_netlist_replay(p, nl);
  if (!s.ok()) {
    std::fprintf(stderr, "CompiledProgram::compile: %s\n",
                 s.to_string().c_str());
    std::abort();
  }
#endif
  return p;
}

BatchEvaluator::BatchEvaluator(const Netlist& nl, const BatchOptions& opt)
    : prog_(CompiledProgram::compile(nl)),
      parallel_(opt.threads > 0
                    ? opt.threads
                    : (opt.pool
                           ? static_cast<int>(opt.pool->parallelism())
                           : static_cast<int>(
                                 ThreadPool::hardware_parallelism()))),
      pool_(opt.pool) {}

BatchEvaluator::BatchEvaluator(BatchEvaluator&& other) noexcept
    : prog_(std::move(other.prog_)), parallel_(other.parallel_) {
  std::lock_guard lock(other.pool_mu_);
  pool_ = std::move(other.pool_);
}

BatchEvaluator& BatchEvaluator::operator=(BatchEvaluator&& other) noexcept {
  if (this != &other) {
    prog_ = std::move(other.prog_);
    parallel_ = other.parallel_;
    std::scoped_lock lock(pool_mu_, other.pool_mu_);
    pool_ = std::move(other.pool_);
  }
  return *this;
}

ThreadPool* BatchEvaluator::acquire_pool() const {
  std::lock_guard lock(pool_mu_);
  if (!pool_ && parallel_ > 1) {
    // Lazily owned, created once and kept: construction cost (the only
    // thread spawns this evaluator ever performs) is paid on the first
    // parallel run(), never per call.
    pool_ = std::make_shared<ThreadPool>(
        static_cast<std::size_t>(parallel_ - 1));
  }
  return pool_.get();
}

void BatchEvaluator::run_flat(std::span<const Trit> inputs,
                              std::span<Trit> outputs) const {
  using Backend = Packed256Backend;
  constexpr std::size_t kLanes = Backend::kLanes;
  const std::size_t width = prog_.input_count();
  const std::size_t outs = prog_.output_count();
  if (width == 0 || inputs.size() % width != 0) {
    throw std::invalid_argument(
        "BatchEvaluator::run_flat: " + std::to_string(inputs.size()) +
        " input trits are not a whole number of " + std::to_string(width) +
        "-trit input vectors");
  }
  const std::size_t n = inputs.size() / width;
  if (outputs.size() != n * outs) {
    throw std::invalid_argument(
        "BatchEvaluator::run_flat: output buffer of " +
        std::to_string(outputs.size()) + " trits, want " +
        std::to_string(n * outs) + " for " + std::to_string(n) +
        " vectors");
  }
  if (n == 0) return;
  const std::size_t groups = (n + kLanes - 1) / kLanes;

  // One shard runs every stride-th lane group through its own executor.
  // Shards may run concurrently on pool threads; they write disjoint rows.
  const auto shard = [&](std::size_t first_group, std::size_t stride) {
    CompiledExecutor<Backend> exec(prog_);
    std::vector<Backend::Value> packed(width);
    for (std::size_t g = first_group; g < groups; g += stride) {
      const std::size_t base = g * kLanes;
      const int active = static_cast<int>(std::min(kLanes, n - base));
      for (std::size_t i = 0; i < width; ++i) {
        Backend::Value& v = packed[i];
        for (int lane = 0; lane < active; ++lane) {
          v.set_lane(
              lane,
              inputs[(base + static_cast<std::size_t>(lane)) * width + i]);
        }
      }
      exec.run(packed);
      for (int lane = 0; lane < active; ++lane) {
        Trit* const row =
            outputs.data() + (base + static_cast<std::size_t>(lane)) * outs;
        for (std::size_t o = 0; o < outs; ++o) {
          row[o] = exec.output_lane(o, lane);
        }
      }
    }
  };

  const std::size_t shards =
      std::min(static_cast<std::size_t>(parallel_), groups);
  if (shards <= 1) {
    shard(0, 1);
  } else {
    acquire_pool()->run_and_wait(
        shards, [&](std::size_t t) { shard(t, shards); });
  }
}

std::vector<Word> BatchEvaluator::run(std::span<const Word> inputs) const {
  std::vector<Trit> flat;
  flat.reserve(inputs.size() * prog_.input_count());
  for (const Word& w : inputs) {
    if (w.size() != prog_.input_count()) {
      throw std::invalid_argument(
          "BatchEvaluator::run: input vector of " + std::to_string(w.size()) +
          " trits, want " + std::to_string(prog_.input_count()));
    }
    flat.insert(flat.end(), w.begin(), w.end());
  }
  std::vector<Trit> flat_out(inputs.size() * prog_.output_count());
  run_flat(flat, flat_out);
  return split_words(flat_out, prog_.output_count());
}

}  // namespace mcsn
