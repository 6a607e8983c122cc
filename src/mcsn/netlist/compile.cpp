#include "mcsn/netlist/compile.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

#include "mcsn/ckt/sort2.hpp"
#include "mcsn/util/thread_pool.hpp"

#if !defined(NDEBUG) || defined(MCSN_VERIFY)
#include <cstdio>
#include <cstdlib>

#include "mcsn/netlist/verify_ir.hpp"
#endif

namespace mcsn {
namespace {

/// The pool every multi-group run_flat shards onto (run_lane_groups):
/// hardware_parallelism() - 1 workers plus the calling thread, started on
/// first use. Deliberately never destroyed, so a thread still inside
/// run_flat while static destructors run never reaches a dead pool.
ThreadPool& engine_pool() {
  static ThreadPool* const pool =
      new ThreadPool(ThreadPool::hardware_parallelism() - 1);
  return *pool;
}

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
    // input/const: not gates; inv: a rail swap in its readers, never an op.
    default: return {};
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

CompiledProgram CompiledProgram::compile(const Netlist& nl) {
  const std::vector<GateNode>& nodes = nl.nodes();
  const std::size_t n = nodes.size();
  CompiledProgram p;

  // 1. Liveness: reverse reachability from the outputs, in one backward
  // sweep. Nodes are stored in topological order, so every reader of a
  // node comes after it and has marked it by the time the sweep arrives.
  std::vector<char> live(n, 0);
  for (const OutputPort& out : nl.outputs()) live[out.node] = 1;
  for (std::size_t id = n; id-- > 0;) {
    if (!live[id]) continue;
    const GateNode& g = nodes[id];
    const int arity = cell_arity(g.kind);
    for (int j = 0; j < arity; ++j) live[g.in[j]] = 1;
  }

  // 2. Roots, polarities and logic levels, in one forward pass (nodes are
  // stored in topological order). ref[id] = 2 * root + polarity, where the
  // root is the nearest non-inverter node id reads through a chain of
  // inverters and the polarity is that chain's length mod 2. Inputs and
  // constants sit at level 0, a gate one past its deepest operand root; an
  // inverter shares its root's level. The live gates other than inverters
  // become ops; the pass counts them per schedule bucket 3 * (level - 1) +
  // form, so each level's ops run in at most three form runs. It also
  // lists the live constants, in node order.
  constexpr std::size_t kForms = kRailFormCount;
  std::vector<std::uint32_t> ref(n, 0);
  std::vector<std::uint32_t> level(n, 0);
  std::vector<std::size_t> bucket_start(1, 0);
  std::vector<NodeId> consts;
  std::uint32_t levels = 0;
  for (NodeId id = 0; id < n; ++id) {
    if (!live[id]) continue;
    const GateNode& g = nodes[id];
    if (g.kind == CellKind::inv) {
      ref[id] = ref[g.in[0]] ^ 1u;
      level[id] = level[g.in[0]];
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
    levels = std::max(levels, level[id]);
    const std::size_t b =
        kForms * lv + static_cast<std::size_t>(rail_form_of(g.kind)) + 1;
    if (bucket_start.size() <= b) bucket_start.resize(b + 1, 0);
    ++bucket_start[b];
  }

  // 3. Schedule: a counting sort by (level, form), stable in creation
  // order. Until step 4 lowers it in place, ops_ holds the schedule
  // itself: op k's `out` is its node id, `in` its operands' refs (so step
  // 4 reads them in stream order instead of chasing fanins through the
  // node array), and kinds[k] its cell kind.
  //
  // Time runs in steps: inputs are written at step 0, and the ops of level
  // l (0-based) at step l + 1, which is their gates' logic level. The pass
  // also finds the step after which each value's slot may be released:
  // its last reader's, or its own when nothing reads it. A node's level is
  // read only when the node itself is placed, and its readers all come
  // later, so release_step takes over the level buffer in place; inputs
  // and constants keep step 0.
  bucket_start.resize(kForms * levels + 1, 0);
  for (std::size_t b = 1; b < bucket_start.size(); ++b) {
    bucket_start[b] += bucket_start[b - 1];
  }
  p.ops_.resize(bucket_start.back());
  std::vector<CellKind> kinds(p.ops_.size());
  p.level_offsets_.resize(levels + 1);
  for (std::size_t l = 0; l <= levels; ++l) {
    p.level_offsets_[l] = bucket_start[kForms * l];
  }
  std::vector<std::uint32_t>& release_step = level;
  for (NodeId id = 0; id < n; ++id) {
    const GateNode& g = nodes[id];
    if (!live[id] || !is_gate(g.kind) || g.kind == CellKind::inv) continue;
    const std::uint32_t step = level[id];
    const std::size_t pos = bucket_start[kForms * (step - 1) +
                                         static_cast<std::size_t>(
                                             rail_form_of(g.kind))]++;
    CompiledOp& op = p.ops_[pos];
    op.out = id;
    kinds[pos] = g.kind;
    release_step[id] = step;
    const int arity = cell_arity(g.kind);
    for (int j = 0; j < arity; ++j) {
      const std::uint32_t r = ref[g.in[j]];
      op.in[static_cast<std::size_t>(j)] = r;
      release_step[r >> 1] = std::max(release_step[r >> 1], step);
    }
  }
  std::vector<std::uint32_t> output_refs;
  output_refs.reserve(nl.outputs().size());
  for (const OutputPort& out : nl.outputs()) {
    output_refs.push_back(ref[out.node]);
  }

  // 4. Slot assignment, over roots only (inverters read their root's
  // slot), in the same pass as lowering and form runs: each op is lowered
  // as soon as its destination slot is known. Live inputs, then live
  // constants, take the first slots, and gates get slots from a free
  // list. A value's slot returns to the list at the start of the step
  // after its release step (`freed` holds it until then), so no op ever
  // writes a slot another op of its step reads. Constants and outputs stay
  // pinned; input slots are reused like any other, since run() rewrites
  // them. A slot keeps its value from allocation until release, so slot_of
  // is each operand's slot at the time its reader runs. slot_of takes over
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
  for (std::uint32_t step = 1; step <= levels; ++step) {
    for (std::size_t k = p.level_offsets_[step - 1];
         k < p.level_offsets_[step]; ++k) {
      CompiledOp& op = p.ops_[k];
      const int arity = cell_arity(kinds[k]);
      std::array<std::uint32_t, 3> in{0, 0, 0};
      for (int j = 0; j < arity; ++j) {
        const auto pin = static_cast<std::size_t>(j);
        in[pin] = rail_of(op.in[pin]);
        release(op.in[pin] >> 1, step);
      }
      const NodeId id = op.out;
      if (free_slots.empty()) {
        slot_of[id] = next_slot++;
      } else {
        slot_of[id] = free_slots.back();
        free_slots.pop_back();
      }
      release(id, step);
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
  Status s = verify_ir(p);
  if (s.ok()) s = verify_netlist_replay(p, nl);
  if (!s.ok()) {
    std::fprintf(stderr, "CompiledProgram::compile: %s\n",
                 s.to_string().c_str());
    std::abort();
  }
#endif
  return p;
}

bool partial_overlap(std::span<const Trit> in,
                     std::span<const Trit> out) noexcept {
  if (in.empty() || out.empty() ||
      (in.data() == out.data() && in.size() == out.size())) {
    return false;
  }
  const std::less<const Trit*> before;
  return before(in.data(), out.data() + out.size()) &&
         before(out.data(), in.data() + in.size());
}

namespace {

using Backend = Packed256Backend;

/// Transposes `m` as an 8x8 byte matrix (byte k of m[j] trades places with
/// byte j of m[k]) in three rounds of 2x2 block swaps: 4-byte, 2-byte and
/// 1-byte blocks.
void transpose_bytes(std::array<std::uint64_t, 8>& m) noexcept {
  const auto swap = [&m](std::size_t a, std::size_t b, int shift,
                         std::uint64_t low) {
    const std::uint64_t t = ((m[a] >> shift) ^ m[b]) & low;
    m[b] ^= t;
    m[a] ^= t << shift;
  };
  for (const std::size_t a : {0, 1, 2, 3}) {
    swap(a, a + 4, 32, 0x00000000ffffffffu);
  }
  for (const std::size_t a : {0, 1, 4, 5}) {
    swap(a, a + 2, 16, 0x0000ffff0000ffffu);
  }
  for (const std::size_t a : {0, 2, 4, 6}) {
    swap(a, a + 1, 8, 0x00ff00ff00ff00ffu);
  }
}

/// Writes lanes [0, active) of the engine's `outs` output values to
/// `rows`, lane L to rows[L * outs, (L + 1) * outs); engine.output(o) is
/// output o's value. It steps over eight values at a time and 64 lanes per
/// rail word. The byte transpose turns eight values' rail words into eight
/// words that each hold eight lanes, value j in byte j with lane i in bit i,
/// so one shift and mask gives a lane's eight bits as bytes: a row's eight
/// trits, can1 + (can0 & can1), in one store. Writes no other bytes, so
/// `rows` may alias the rows the group was packed from.
template <class Engine>
void unpack_lanes(const Engine& engine, std::size_t outs, int active,
                  Trit* rows) {
  for (std::size_t o = 0; o < outs; o += 8) {
    const std::size_t n = std::min<std::size_t>(8, outs - o);
    for (int w = 0; 64 * w < active; ++w) {
      const auto word = static_cast<std::size_t>(w);
      std::array<std::uint64_t, 8> one{};   // lanes where value o + j can be 1
      std::array<std::uint64_t, 8> meta{};  // and where it is M
      for (std::size_t j = 0; j < n; ++j) {
        const Backend::Value& v = engine.output(o + j);
        one[j] = v.can1.word[word];
        meta[j] = v.can0.word[word] & v.can1.word[word];
      }
      transpose_bytes(one);
      transpose_bytes(meta);
      for (int k = 0; k < 8; ++k) {
        const int first = 64 * w + 8 * k;
        const int lanes = std::min(8, active - first);
        for (int i = 0; i < lanes; ++i) {
          Trit* const row =
              rows + static_cast<std::size_t>(first + i) * outs + o;
          const std::uint64_t trits =
              ((one[k] >> i) & kTritWordLsb) + ((meta[k] >> i) & kTritWordLsb);
          if (n == 8) {  // a constant size: one 8-byte store
            store_trit_word(row, trits);
          } else {
            store_trit_word(row, trits, n);
          }
        }
      }
    }
  }
}

/// The lane-group loop behind both evaluators' run_flat. `inputs` holds
/// N vectors of `width` trits and `outputs` receives N vectors of `outs`
/// trits. Each shard builds one engine with make_engine(), which exposes
/// inputs() (the `width` values a group is packed into), run() and
/// output(o) (read by unpack_lanes). A one-group call runs on the caller.
/// A call with G > 1 groups shards them over min(G,
/// hardware_parallelism()) threads: the caller plus engine_pool(). Shards
/// write disjoint rows. `outputs` may be `inputs` itself: a group's rows
/// are all packed before any of them is written, and each shard owns whole
/// groups.
template <class MakeEngine>
void run_lane_groups(const char* who, std::span<const Trit> inputs,
                     std::span<Trit> outputs, std::size_t width,
                     std::size_t outs, const MakeEngine& make_engine) {
  constexpr std::size_t kLanes = Backend::kLanes;
  if (width == 0 || inputs.size() % width != 0) {
    throw std::invalid_argument(
        std::string(who) + ": " + std::to_string(inputs.size()) +
        " input trits are not a whole number of " + std::to_string(width) +
        "-trit input vectors");
  }
  const std::size_t n = inputs.size() / width;
  if (outputs.size() != n * outs) {
    throw std::invalid_argument(
        std::string(who) + ": output buffer of " +
        std::to_string(outputs.size()) + " trits, want " +
        std::to_string(n * outs) + " for " + std::to_string(n) +
        " vectors");
  }
  if (partial_overlap(inputs, outputs)) {
    throw std::invalid_argument(std::string(who) +
                                ": output buffer partly overlaps the input");
  }
  if (n == 0) return;
  const std::size_t groups = (n + kLanes - 1) / kLanes;

  // One shard runs every stride-th lane group through its own engine.
  const auto shard = [&](std::size_t first_group, std::size_t stride) {
    auto engine = make_engine();
    const std::span<Backend::Value> packed = engine.inputs();
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
      engine.run();
      unpack_lanes(engine, outs, active, outputs.data() + base * outs);
    }
  };

  if (groups == 1) {
    shard(0, 1);
    return;
  }
  ThreadPool& pool = engine_pool();
  const std::size_t shards = std::min(groups, pool.parallelism());
  pool.run_and_wait(shards, [&](std::size_t t) { shard(t, shards); });
}

/// BatchEvaluator's engine: the whole program, run on a packed input array.
class ProgramEngine {
 public:
  explicit ProgramEngine(const CompiledProgram& prog)
      : exec_(prog), packed_(prog.input_count()) {}

  std::span<Backend::Value> inputs() noexcept { return packed_; }
  void run() { exec_.run(packed_); }
  /// Output o: its pair of rails in the executor.
  [[nodiscard]] Backend::Value output(std::size_t o) const {
    return exec_.output(o);
  }

 private:
  CompiledExecutor<Backend> exec_;
  std::vector<Backend::Value> packed_;
};

/// sort2_serial_scan's algebra on 256 lanes: Kleene gates on the rails.
struct RailAlgebra {
  using V = Backend::Value;
  static V and_(const V& a, const V& b) noexcept { return packed_and(a, b); }
  static V or_(const V& a, const V& b) noexcept { return packed_or(a, b); }
  static V not_(const V& a) noexcept { return packed_not(a); }
  static V select(const V& a, const V& b, const V& s1,
                  const V& s2) noexcept {
    return or_(and_(or_(s1, a), b), and_(not_(s2), a));
  }
};

/// CellNetworkEvaluator's engine: the channel-major state array, one value
/// per channel bit, sorted in place by the serial scan per comparator.
class CellNetworkEngine {
 public:
  CellNetworkEngine(std::size_t bits, const ComparatorNetwork& network)
      : bits_(bits),
        network_(network),
        state_(static_cast<std::size_t>(network.channels()) * bits) {}

  std::span<Backend::Value> inputs() noexcept { return state_; }

  void run() noexcept {
    for (const std::vector<Comparator>& layer : network_.layers()) {
      for (const Comparator& cmp : layer) {
        sort2_serial_scan(
            RailAlgebra{},
            state_.data() + static_cast<std::size_t>(cmp.lo) * bits_,
            state_.data() + static_cast<std::size_t>(cmp.hi) * bits_, bits_);
      }
    }
  }

  /// Output o: state value o, since the network sorts in place.
  [[nodiscard]] const Backend::Value& output(std::size_t o) const noexcept {
    return state_[o];
  }

 private:
  std::size_t bits_;
  const ComparatorNetwork& network_;
  std::vector<Backend::Value> state_;
};

}  // namespace

void BatchEvaluator::run_flat(std::span<const Trit> inputs,
                              std::span<Trit> outputs) const {
  run_lane_groups("BatchEvaluator::run_flat", inputs, outputs,
                  prog_.input_count(), prog_.output_count(),
                  [this] { return ProgramEngine(prog_); });
}

CellNetworkEvaluator::CellNetworkEvaluator(std::size_t bits,
                                           ComparatorNetwork network)
    : bits_(bits), network_(std::move(network)) {
  if (bits_ == 0) {
    throw std::invalid_argument("CellNetworkEvaluator: bits must be >= 1");
  }
  if (!network_.well_formed()) {
    throw std::invalid_argument("CellNetworkEvaluator: network '" +
                                network_.name() + "' is not well formed");
  }
}

void CellNetworkEvaluator::run_flat(std::span<const Trit> inputs,
                                    std::span<Trit> outputs) const {
  run_lane_groups("CellNetworkEvaluator::run_flat", inputs, outputs,
                  width(), width(), [this] {
                    return CellNetworkEngine(bits_, network_);
                  });
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
