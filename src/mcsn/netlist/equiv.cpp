#include "mcsn/netlist/equiv.hpp"

#include <cmath>
#include <stdexcept>

#include "mcsn/netlist/compile.hpp"
#include "mcsn/util/rng.hpp"

namespace mcsn {

namespace {

// Decodes combination index `v` into an input word over the given radix
// alphabet (radix 2: {0,1}; radix 3: {0,1,M}).
Word decode_input(std::uint64_t v, std::size_t width, int radix) {
  Word w(width);
  for (std::size_t i = 0; i < width; ++i) {
    w[i] = trit_from_index(static_cast<int>(v % static_cast<unsigned>(radix)));
    v /= static_cast<unsigned>(radix);
  }
  return w;
}

}  // namespace

std::string EquivMismatch::describe() const {
  return "input=" + input.str() + " a=" + output_a.str() +
         " b=" + output_b.str();
}

void require_same_ports(const char* who, const Netlist& a, const Netlist& b) {
  if (a.inputs().size() != b.inputs().size() ||
      a.outputs().size() != b.outputs().size()) {
    throw std::invalid_argument(
        std::string(who) + ": netlist a has " +
        std::to_string(a.inputs().size()) + " inputs and " +
        std::to_string(a.outputs().size()) + " outputs, netlist b has " +
        std::to_string(b.inputs().size()) + " and " +
        std::to_string(b.outputs().size()));
  }
}

std::optional<EquivMismatch> check_equivalence(const Netlist& a,
                                               const Netlist& b,
                                               const EquivOptions& opt) {
  require_same_ports("check_equivalence", a, b);
  const std::size_t width = a.inputs().size();
  const std::size_t outs = a.outputs().size();
  const int radix = opt.semantics == EquivSemantics::boolean_only ? 2 : 3;

  // Total combination count, saturating.
  std::uint64_t total = 1;
  bool overflow = false;
  for (std::size_t i = 0; i < width && !overflow; ++i) {
    if (total > opt.exhaustive_bound) overflow = true;
    total *= static_cast<unsigned>(radix);
  }
  const bool exhaustive = !overflow && total <= opt.exhaustive_bound;

  // Both netlists compile to dense, dead-node-eliminated programs executed
  // 256 vectors per pass by the wide compiled engine.
  const CompiledProgram pa = CompiledProgram::compile(a);
  const CompiledProgram pb = CompiledProgram::compile(b);
  CompiledExecutor<Packed256Backend> eva(pa);
  CompiledExecutor<Packed256Backend> evb(pb);
  constexpr int kLanes = Packed256Backend::kLanes;
  std::vector<PackedTrit256> inputs(width);
  std::vector<Word> lane_words(kLanes, Word(width));

  Xoshiro256 rng(opt.seed);
  const std::uint64_t n_vectors = exhaustive ? total : opt.random_samples;

  std::uint64_t done = 0;
  while (done < n_vectors) {
    const int lanes = static_cast<int>(
        std::min<std::uint64_t>(kLanes, n_vectors - done));
    for (int lane = 0; lane < lanes; ++lane) {
      Word w(width);
      if (exhaustive) {
        w = decode_input(done + static_cast<std::uint64_t>(lane), width,
                         radix);
      } else {
        for (std::size_t i = 0; i < width; ++i) {
          w[i] = trit_from_index(
              static_cast<int>(rng.below(static_cast<unsigned>(radix))));
        }
      }
      lane_words[static_cast<std::size_t>(lane)] = w;
      for (std::size_t i = 0; i < width; ++i) {
        inputs[i].set_lane(lane, w[i]);
      }
    }
    eva.run(inputs);
    evb.run(inputs);
    for (int lane = 0; lane < lanes; ++lane) {
      for (std::size_t o = 0; o < outs; ++o) {
        if (eva.output_lane(o, lane) != evb.output_lane(o, lane)) {
          Word oa(outs), ob(outs);
          for (std::size_t k = 0; k < outs; ++k) {
            oa[k] = eva.output_lane(k, lane);
            ob[k] = evb.output_lane(k, lane);
          }
          return EquivMismatch{lane_words[static_cast<std::size_t>(lane)], oa,
                               ob};
        }
      }
    }
    done += static_cast<std::uint64_t>(lanes);
  }
  return std::nullopt;
}

}  // namespace mcsn
