// Clock-synchronization scenario (the paper's motivating application, cf.
// the TDC reference [7]): a node measures clock offsets to 10 remote nodes
// with time-to-digital converters. Each TDC reports a B-bit Gray code value;
// when a signal edge races the sampling clock, the affected code word
// contains one metastable bit (a valid string "between x and x+1").
//
// Fault-tolerant clock sync needs order statistics (e.g. discard the k
// smallest/largest and average the middle) — so the measurements must be
// SORTED before metastability has time to resolve. This example runs the
// full MC 10-sort network on randomized measurement rounds and verifies:
//   * outputs are always rank-sorted valid strings,
//   * marginal measurements stay contained (#metastable output channels =
//     #metastable input channels),
//   * the non-containing Bin-comp design, in contrast, poisons many bits.
//
//   $ ./tdc_sorting [--rounds 1000] [--bits 8] [--seed 7]

#include <algorithm>
#include <iostream>
#include <vector>

#include "mcsn/mcsn.hpp"

namespace {

struct Measurement {
  mcsn::Word code;
  std::uint64_t rank;
};

// A TDC measurement of a real-valued offset in [0, 2^bits - 1): values close
// to a code boundary come out marginal.
Measurement measure(double offset, std::size_t bits) {
  const auto x = static_cast<std::uint64_t>(offset);
  const double frac = offset - static_cast<double>(x);
  // Within 5% of the boundary: the sampled bit is metastable.
  if (frac > 0.95) {
    mcsn::Word w = mcsn::gray_encode(x, bits);
    w[mcsn::gray_flip_index(x, bits)] = mcsn::Trit::meta;
    return {w, 2 * x + 1};
  }
  return {mcsn::gray_encode(x, bits), 2 * x};
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace mcsn;
  const CliArgs args(argc, argv, {"bits", "rounds", "seed"});
  const std::size_t bits =
      static_cast<std::size_t>(args.get_long_or("bits", 8));
  const long rounds = args.get_long_or("rounds", 1000);
  Xoshiro256 rng(static_cast<std::uint64_t>(args.get_long_or("seed", 7)));

  const ComparatorNetwork net = depth_optimal_10();
  const Netlist sorter = elaborate_network(net, bits, sort2_builder());
  const Netlist binary = elaborate_network(net, bits, bincomp_builder());
  std::cout << "MC sorter:     " << compute_stats(sorter) << "\n";
  std::cout << "binary sorter: " << compute_stats(binary) << "\n\n";

  Evaluator mc_eval(sorter);
  Evaluator bin_eval(binary);

  long marginal_rounds = 0;
  long contained = 0;
  long bin_poisoned_bits = 0;
  long mc_meta_bits = 0;
  Word mc_out, bin_out;
  std::vector<Trit> in;

  const double span = static_cast<double>((1u << bits) - 1);
  for (long round = 0; round < rounds; ++round) {
    std::vector<Measurement> ms;
    std::size_t marginal_inputs = 0;
    in.clear();
    for (int c = 0; c < net.channels(); ++c) {
      const double offset = rng.uniform() * span;
      ms.push_back(measure(offset, bits));
      marginal_inputs += ms.back().code.is_stable() ? 0 : 1;
      in.insert(in.end(), ms.back().code.begin(), ms.back().code.end());
    }
    mc_eval.run_outputs(in, mc_out);
    bin_eval.run_outputs(in, bin_out);

    // Verify: MC output channels are the rank-sorted inputs.
    std::vector<std::uint64_t> ranks;
    for (const Measurement& m : ms) ranks.push_back(m.rank);
    std::sort(ranks.begin(), ranks.end());
    std::size_t marginal_outputs = 0;
    for (int c = 0; c < net.channels(); ++c) {
      const Word ch = mc_out.sub(static_cast<std::size_t>(c) * bits,
                                 (static_cast<std::size_t>(c) + 1) * bits - 1);
      const auto r = valid_rank(ch);
      if (!r || *r != ranks[static_cast<std::size_t>(c)]) {
        std::cerr << "SORTING BUG in round " << round << "\n";
        return 1;
      }
      marginal_outputs += ch.is_stable() ? 0 : 1;
      for (const Trit t : ch) mc_meta_bits += is_meta(t) ? 1 : 0;
    }
    if (marginal_inputs > 0) {
      ++marginal_rounds;
      if (marginal_outputs == marginal_inputs) ++contained;
    }
    for (const Trit t : bin_out) bin_poisoned_bits += is_meta(t) ? 1 : 0;
  }

  std::cout << "rounds:                         " << rounds << "\n";
  std::cout << "rounds with marginal input:     " << marginal_rounds << "\n";
  std::cout << "  contained by MC sorter:       " << contained << " ("
            << (marginal_rounds ? 100.0 * contained / marginal_rounds : 100.0)
            << "%)\n";
  std::cout << "metastable output bits, MC:     " << mc_meta_bits
            << " (exactly one per marginal measurement)\n";
  std::cout << "metastable output bits, binary: " << bin_poisoned_bits
            << " (uncontained spread)\n";
  return contained == marginal_rounds ? 0 : 1;
} catch (const mcsn::CliError& e) {
  std::cerr << "tdc_sorting: " << e.what()
            << "\nusage: example_tdc_sorting [--rounds N] [--bits B]"
               " [--seed S]\n";
  return 2;
}
