#include "mcsn/netlist/compile.hpp"

#include <algorithm>

#if !defined(NDEBUG) || defined(MCSN_VERIFY)
#include <cstdio>
#include <cstdlib>

#include "mcsn/netlist/verify_ir.hpp"
#endif

namespace mcsn {

CompiledProgram CompiledProgram::compile(const Netlist& nl,
                                         const CompileOptions& opt) {
  const std::vector<GateNode>& nodes = nl.nodes();
  const std::size_t n = nodes.size();
  CompiledProgram p;

  // 1. Liveness: reverse reachability from the outputs (unless disabled).
  std::vector<char> live(n, 0);
  if (opt.retain_all_nodes || !opt.eliminate_dead) {
    std::fill(live.begin(), live.end(), 1);
  } else {
    std::vector<NodeId> stack;
    stack.reserve(nl.outputs().size());
    for (const OutputPort& out : nl.outputs()) {
      if (!live[out.node]) {
        live[out.node] = 1;
        stack.push_back(out.node);
      }
    }
    while (!stack.empty()) {
      const NodeId id = stack.back();
      stack.pop_back();
      const GateNode& g = nodes[id];
      const int arity = cell_arity(g.kind);
      for (int j = 0; j < arity; ++j) {
        if (!live[g.in[j]]) {
          live[g.in[j]] = 1;
          stack.push_back(g.in[j]);
        }
      }
    }
  }
  const auto is_const = [&nodes](NodeId id) {
    return nodes[id].kind == CellKind::const0 ||
           nodes[id].kind == CellKind::const1;
  };
  const auto live_gate = [&](NodeId id) {
    return live[id] && is_gate(nodes[id].kind);
  };

  // 2. Logic levels. Nodes are stored in topological order, so one forward
  // pass suffices: inputs and constants sit at level 0, a gate one past its
  // deepest live fanin.
  std::vector<std::uint32_t> level(n, 0);
  std::uint32_t max_level = 0;
  for (NodeId id = 0; id < n; ++id) {
    if (!live_gate(id)) continue;
    const GateNode& g = nodes[id];
    const int arity = cell_arity(g.kind);
    std::uint32_t lv = 0;
    for (int j = 0; j < arity; ++j) lv = std::max(lv, level[g.in[j]]);
    level[id] = lv + 1;
    max_level = std::max(max_level, level[id]);
  }

  // 3. Schedule. Level order is a counting sort by level, stable in
  // creation order; bucket l holds the gates of level l + 1.
  std::vector<NodeId> gate_order;
  if (opt.levelize) {
    p.level_offsets_.assign(max_level + 1, 0);
    for (NodeId id = 0; id < n; ++id) {
      if (live_gate(id)) ++p.level_offsets_[level[id]];
    }
    for (std::size_t l = 1; l < p.level_offsets_.size(); ++l) {
      p.level_offsets_[l] += p.level_offsets_[l - 1];
    }
    gate_order.resize(p.level_offsets_.back());
    std::vector<std::size_t> cursor(p.level_offsets_.begin(),
                                    p.level_offsets_.end() - 1);
    for (NodeId id = 0; id < n; ++id) {
      if (live_gate(id)) gate_order[cursor[level[id] - 1]++] = id;
    }
  } else {
    for (NodeId id = 0; id < n; ++id) {
      if (live_gate(id)) gate_order.push_back(id);
    }
  }

  // 4. Slot assignment. retain_all_nodes keeps the identity mapping. The
  // dense mode gives live inputs, then live constants, the first slots and
  // hands gates slots from a free list. Time runs in steps: inputs are
  // written at step 0, and a gate at the step of its level (in creation
  // order, each op is its own step). A value's slot returns to the list at
  // the start of the step after its last reader, so no op ever writes a
  // slot another op of its step reads. Constants and outputs stay pinned;
  // input slots are reused like any other, since run() rewrites them.
  std::vector<std::uint32_t> slot_of(n, kNoSlot);
  if (opt.retain_all_nodes) {
    for (NodeId id = 0; id < n; ++id) slot_of[id] = id;
    p.slot_count_ = n;
  } else {
    const auto step_of = [&](std::size_t k) {
      return opt.levelize ? level[gate_order[k]]
                          : static_cast<std::uint32_t>(k + 1);
    };
    // The step after which each value's slot is released: its last
    // reader's, or its own when nothing reads it. kKept: never released.
    constexpr std::uint32_t kKept = 0xffffffffu;
    std::vector<std::uint32_t> release_step(n, 0);
    for (std::size_t k = 0; k < gate_order.size(); ++k) {
      const std::uint32_t s = step_of(k);
      const GateNode& g = nodes[gate_order[k]];
      release_step[gate_order[k]] = s;
      const int arity = cell_arity(g.kind);
      for (int j = 0; j < arity; ++j) release_step[g.in[j]] = s;
    }
    for (const OutputPort& out : nl.outputs()) release_step[out.node] = kKept;

    std::uint32_t next = 0;
    for (const NodeId id : nl.inputs()) {
      if (live[id]) slot_of[id] = next++;
    }
    for (NodeId id = 0; id < n; ++id) {
      if (live[id] && is_const(id)) {
        slot_of[id] = next++;
        release_step[id] = kKept;
      }
    }
    std::vector<std::uint32_t> free_slots;
    const auto release = [&](NodeId id, std::uint32_t s) {
      if (release_step[id] == s) {
        free_slots.push_back(slot_of[id]);
        release_step[id] = kKept;
      }
    };
    for (const NodeId id : nl.inputs()) {
      if (live[id]) release(id, 0);
    }
    for (std::size_t k = 0; k < gate_order.size();) {
      const std::uint32_t s = step_of(k);
      std::size_t end = k;
      for (; end < gate_order.size() && step_of(end) == s; ++end) {
        if (free_slots.empty()) {
          slot_of[gate_order[end]] = next++;
        } else {
          slot_of[gate_order[end]] = free_slots.back();
          free_slots.pop_back();
        }
      }
      for (; k < end; ++k) {
        const GateNode& g = nodes[gate_order[k]];
        const int arity = cell_arity(g.kind);
        for (int j = 0; j < arity; ++j) release(g.in[j], s);
        release(gate_order[k], s);
      }
    }
    p.slot_count_ = next;
  }

  // 5. Constant initializers.
  for (NodeId id = 0; id < n; ++id) {
    if (live[id] && is_const(id)) {
      p.const_inits_.push_back(
          {slot_of[id],
           nodes[id].kind == CellKind::const1 ? Trit::one : Trit::zero});
    }
  }

  // 6. Instruction stream. Unused fanin pins point at slot 0; the cell
  // evaluators ignore operands beyond the cell's arity. A slot keeps its
  // value from allocation until release, so slot_of is each operand's
  // slot at the time its reader runs.
  p.ops_.reserve(gate_order.size());
  for (const NodeId id : gate_order) {
    const GateNode& g = nodes[id];
    const int arity = cell_arity(g.kind);
    CompiledOp op;
    op.kind = g.kind;
    op.out = slot_of[id];
    for (int j = 0; j < 3; ++j) {
      op.in[static_cast<std::size_t>(j)] = j < arity ? slot_of[g.in[j]] : 0;
    }
    p.ops_.push_back(op);
  }

  // 7. Outputs (always live by construction).
  p.output_slots_.reserve(nl.outputs().size());
  for (const OutputPort& out : nl.outputs()) {
    p.output_slots_.push_back(slot_of[out.node]);
  }
  p.input_slots_.reserve(nl.inputs().size());
  for (const NodeId id : nl.inputs()) {
    p.input_slots_.push_back(slot_of[id]);
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
  assert(width > 0 && inputs.size() % width == 0);
  const std::size_t n = width == 0 ? 0 : inputs.size() / width;
  assert(outputs.size() == n * outs);
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
    assert(w.size() == prog_.input_count());
    flat.insert(flat.end(), w.begin(), w.end());
  }
  std::vector<Trit> flat_out(inputs.size() * prog_.output_count());
  run_flat(flat, flat_out);
  return split_words(flat_out, prog_.output_count());
}

}  // namespace mcsn
