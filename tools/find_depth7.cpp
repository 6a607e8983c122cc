// Offline synthesis driver: searches for a depth-7 sorting network on 10
// channels (the minimum depth, Bundala & Zavodny) with the simulated
// annealing engine, then greedily minimizes its size. The found network is
// hardcoded in nets/catalog.cpp (depth_optimal_10) and machine-verified by
// the test suite.
//
// Usage: find_depth7 [--channels N] [--layers D] [--seeds K] [--iters I]

#include <cstdio>
#include <iostream>
#include <optional>

#include "mcsn/nets/search.hpp"
#include "mcsn/util/cli.hpp"

int main(int argc, char** argv) try {
  const mcsn::CliArgs args(argc, argv,
                           {"channels", "layers", "seeds", "iters"});
  mcsn::AnnealConfig cfg;
  cfg.channels = static_cast<int>(args.get_long_or("channels", 10));
  cfg.layers = static_cast<int>(args.get_long_or("layers", 7));
  cfg.max_iterations =
      static_cast<std::uint64_t>(args.get_long_or("iters", 3'000'000));
  const long seeds = args.get_long_or("seeds", 16);

  std::optional<mcsn::ComparatorNetwork> best;
  for (long s = 1; s <= seeds; ++s) {
    cfg.seed = static_cast<std::uint64_t>(s);
    const mcsn::AnnealResult res = mcsn::anneal_fixed_depth(cfg);
    std::printf("seed %ld: unsorted=%zu size=%zu depth=%zu\n", s,
                res.unsorted, res.network.size(), res.network.depth());
    std::fflush(stdout);
    if (res.unsorted == 0) {
      const mcsn::ComparatorNetwork mini = mcsn::minimize_size(res.network);
      std::printf("  minimized: size=%zu depth=%zu\n", mini.size(),
                  mini.depth());
      if (!best || mini.size() < best->size()) best = mini;
      if (best->size() <= 31) break;
    }
  }

  if (!best) {
    std::printf("no sorting network found; increase --iters/--seeds\n");
    return 1;
  }
  std::printf("\nbest: size=%zu depth=%zu\n", best->size(), best->depth());
  for (const auto& layer : best->layers()) {
    std::printf("  {");
    for (std::size_t i = 0; i < layer.size(); ++i) {
      std::printf("%s{%d, %d}", i ? ", " : "", layer[i].lo, layer[i].hi);
    }
    std::printf("},\n");
  }
  return 0;
} catch (const mcsn::CliError& e) {
  std::cerr << "find_depth7: " << e.what()
            << "\nusage: tool_find_depth7 [--channels N] [--layers D]"
               " [--seeds K] [--iters I]\n";
  return 2;
}
