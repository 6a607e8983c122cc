#pragma once
// Netlist evaluation under the ternary (metastable closure) semantics of the
// paper's computational model.
//
// Evaluator and PackedEvaluator are thin wrappers over the compiled rail
// engine in compile.hpp: both run the one program compile() produces on
// its 64-lane executor, and Evaluator reads lane 0. That program keeps no
// value per node, so per-node values come from the original
// pointer-chasing implementation, NodeWalkEvaluator (and evaluate_nodes) —
// also the differential-testing baseline and benchmark comparator.
//
// Every entry point throws std::invalid_argument unless it gets exactly
// one input per primary input.

#include <memory>
#include <span>
#include <vector>

#include "mcsn/core/packed.hpp"
#include "mcsn/core/word.hpp"
#include "mcsn/netlist/compile.hpp"
#include "mcsn/netlist/netlist.hpp"

namespace mcsn {

/// Evaluates every node; `inputs` are assigned to the primary inputs in
/// creation order. Returns values of all nodes (indexable by NodeId).
[[nodiscard]] std::vector<Trit> evaluate_nodes(const Netlist& nl,
                                               std::span<const Trit> inputs);

/// Evaluates and extracts the outputs (in mark_output order) as a Word.
[[nodiscard]] Word evaluate(const Netlist& nl, std::span<const Trit> inputs);

/// Convenience: input vector given as a Word.
[[nodiscard]] Word evaluate(const Netlist& nl, const Word& inputs);

/// The legacy node-walking evaluator: dispatches on CellKind per node on
/// every call, no dead-node elimination. Kept as the reference
/// implementation the compiled engine is differentially tested (and
/// benchmarked) against.
class NodeWalkEvaluator {
 public:
  explicit NodeWalkEvaluator(const Netlist& nl);

  /// Returns node values (indexable by NodeId); valid until the next run().
  std::span<const Trit> run(std::span<const Trit> inputs);

  /// Runs and copies outputs into `out` (resized as needed).
  void run_outputs(std::span<const Trit> inputs, Word& out);

 private:
  const Netlist* nl_;
  std::vector<Trit> values_;
};

/// Reusable evaluator that amortizes compilation and allocation across
/// calls — preferred in exhaustive test sweeps and benchmarks. Backed by the
/// compiled engine: the 64-lane executor run on lane 0. Does not keep a
/// reference to the netlist.
class Evaluator {
 public:
  explicit Evaluator(const Netlist& nl);

  /// Runs and copies outputs into `out` (resized as needed).
  void run_outputs(std::span<const Trit> inputs, Word& out);

 private:
  // shared_ptr keeps the program address stable across moves (the executor
  // holds a pointer into it); vector<Evaluator> must stay movable.
  std::shared_ptr<const CompiledProgram> prog_;
  CompiledExecutor<Packed64Backend> exec_;
  std::vector<PackedTrit> packed_;
};

/// 64-lane packed evaluator: lane k of every input PackedTrit forms one
/// independent input vector; outputs come back lane-aligned. Backed by the
/// compiled engine (64-lane backend).
class PackedEvaluator {
 public:
  explicit PackedEvaluator(const Netlist& nl);

  void run(std::span<const PackedTrit> inputs);

  /// Extracts output `o`, lane `lane` from the last run.
  [[nodiscard]] Trit output_lane(std::size_t o, int lane) const {
    return exec_.output_lane(o, lane);
  }

 private:
  std::shared_ptr<const CompiledProgram> prog_;
  CompiledExecutor<Packed64Backend> exec_;
};

}  // namespace mcsn
