// E15 — evaluation-engine throughput on the paper's flagship workload: a
// 10-channel, 8-bit (10-sortd, B=8) metastability-containing sorter swept
// over random valid measurement rounds.
//
// Compares the legacy scalar node-walking evaluator against the compiled,
// levelized engine at every backend width (one vector at a time through
// Evaluator, 64-lane, 256-lane batch, sharded batch) and emits
// machine-readable JSON so the perf trajectory can be tracked across PRs:
//
//   bench_sim_throughput [--vectors N] [--bits B] [--channels C]
//
// batch_compiled calls BatchEvaluator::run once per 256-vector lane group,
// so every call runs serially on the caller. batch_compiled_mt passes the
// whole corpus in one call, whose lane groups shard over the process-wide
// engine pool ("engine_parallelism" threads, the caller included).
// served_sorter passes it in one McSorter::sort_batch_flat call on the same
// network: the engine the serving stack runs, the serial 2-sort scan per
// comparator instead of the elaborated (Ladner–Fischer) program.
//
// Every engine runs the same input corpus and must produce the same output
// checksum ("engines_agree": true) — a built-in differential smoke test.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <locale>
#include <span>
#include <string>
#include <vector>

#include "mcsn/mcsn.hpp"

namespace {

using namespace mcsn;

struct EngineResult {
  std::string name;
  std::size_t vectors = 0;
  double seconds = 0.0;
  std::uint64_t checksum = 0;

  [[nodiscard]] double vectors_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(vectors) / seconds : 0.0;
  }
};

template <typename Trits>
std::uint64_t fnv1a_word(std::uint64_t h, const Trits& w) {
  for (const Trit t : w) {
    h ^= static_cast<std::uint64_t>(t) + 1;
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename F>
EngineResult run_engine(const std::string& name, std::size_t vectors, F&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t checksum = fn();
  const auto t1 = std::chrono::steady_clock::now();
  return {name, vectors, std::chrono::duration<double>(t1 - t0).count(),
          checksum};
}

}  // namespace

int main(int argc, char** argv) {
  // The JSON on stdout is consumed by CI artifact tooling; keep it in the
  // locale-independent "C" form regardless of the global locale.
  std::cout.imbue(std::locale::classic());

  std::size_t n_vectors = 16384;
  std::size_t bits = 8;
  int channels = 10;
  const auto usage = [&] {
    std::cerr << "usage: bench_sim_throughput [--vectors N>=1] [--bits 1..16]"
                 " [--channels C>=2]\n";
    return 2;
  };
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return usage();  // flag without a value
    std::uint64_t value = 0;
    try {
      std::size_t pos = 0;
      value = std::stoull(argv[i + 1], &pos);
      if (argv[i + 1][pos] != '\0') return usage();
    } catch (const std::exception&) {
      return usage();
    }
    if (std::strcmp(argv[i], "--vectors") == 0) {
      n_vectors = value;
    } else if (std::strcmp(argv[i], "--bits") == 0) {
      bits = value;
    } else if (std::strcmp(argv[i], "--channels") == 0) {
      channels = static_cast<int>(value);
    } else {
      return usage();
    }
  }
  if (n_vectors < 1 || bits < 1 || bits > 16 || channels < 2) return usage();

  const ComparatorNetwork net =
      channels == 10 ? depth_optimal_10() : batcher_odd_even(channels);
  const Netlist nl = elaborate_network(net, bits, sort2_builder());
  const CompiledProgram prog = CompiledProgram::compile(nl);

  // Corpus: random valid measurement rounds, identical for every engine.
  Xoshiro256 rng(42);
  std::vector<Word> corpus;
  corpus.reserve(n_vectors);
  for (std::size_t v = 0; v < n_vectors; ++v) {
    Word joined(0);
    for (int c = 0; c < channels; ++c) {
      joined = joined + valid_from_rank(rng.below(valid_count(bits)), bits);
    }
    corpus.push_back(std::move(joined));
  }

  std::vector<EngineResult> results;

  results.push_back(run_engine("scalar_nodewalk", n_vectors, [&] {
    NodeWalkEvaluator ev(nl);
    std::vector<Trit> in;
    Word out;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const Word& w : corpus) {
      in.assign(w.begin(), w.end());
      ev.run_outputs(in, out);
      h = fnv1a_word(h, out);
    }
    return h;
  }));

  results.push_back(run_engine("scalar_compiled", n_vectors, [&] {
    Evaluator ev(nl);
    std::vector<Trit> in;
    Word out;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const Word& w : corpus) {
      in.assign(w.begin(), w.end());
      ev.run_outputs(in, out);
      h = fnv1a_word(h, out);
    }
    return h;
  }));

  results.push_back(run_engine("packed64_compiled", n_vectors, [&] {
    CompiledExecutor<Packed64Backend> exec(prog);
    const std::size_t width = prog.input_count();
    const std::size_t outs = prog.output_count();
    std::vector<PackedTrit> in(width);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    Word out(outs);
    for (std::size_t base = 0; base < n_vectors; base += 64) {
      const int active =
          static_cast<int>(std::min<std::size_t>(64, n_vectors - base));
      for (std::size_t i = 0; i < width; ++i) {
        for (int lane = 0; lane < active; ++lane) {
          in[i].set_lane(lane, corpus[base + static_cast<std::size_t>(lane)][i]);
        }
      }
      exec.run(in);
      for (int lane = 0; lane < active; ++lane) {
        for (std::size_t o = 0; o < outs; ++o) {
          out[o] = exec.output_lane(o, lane);
        }
        h = fnv1a_word(h, out);
      }
    }
    return h;
  }));

  results.push_back(run_engine("batch_compiled", n_vectors, [&] {
    const BatchEvaluator be(nl);
    const std::span<const Word> all(corpus);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t base = 0; base < n_vectors; base += 256) {
      const std::size_t count = std::min<std::size_t>(256, n_vectors - base);
      for (const Word& w : be.run(all.subspan(base, count))) {
        h = fnv1a_word(h, w);
      }
    }
    return h;
  }));

  results.push_back(run_engine("batch_compiled_mt", n_vectors, [&] {
    const BatchEvaluator be(nl);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const Word& w : be.run(corpus)) h = fnv1a_word(h, w);
    return h;
  }));

  results.push_back(run_engine("served_sorter", n_vectors, [&] {
    const McSorter sorter(BuiltNetwork{net}, bits);
    const std::size_t width = sorter.shape().trits();
    std::vector<Trit> in;
    in.reserve(n_vectors * width);
    for (const Word& w : corpus) in.insert(in.end(), w.begin(), w.end());
    std::vector<Trit> out(in.size());
    std::uint64_t h = 0xcbf29ce484222325ULL;
    if (!sorter.sort_batch_flat(in, out).ok()) return ~h;
    const std::span<const Trit> sorted(out);
    for (std::size_t v = 0; v < n_vectors; ++v) {
      h = fnv1a_word(h, sorted.subspan(v * width, width));
    }
    return h;
  }));

  bool agree = true;
  for (const EngineResult& r : results) {
    agree = agree && r.checksum == results.front().checksum;
  }
  const double base_vps = results.front().vectors_per_sec();

  std::cout << "{\n  \"workload\": {\"network\": \"" << net.name()
            << "\", \"channels\": " << channels << ", \"bits\": " << bits
            << ", \"gates\": " << nl.gate_count()
            << ", \"live_gates\": " << prog.live_gate_count()
            << ", \"levels\": " << prog.level_count()
            << ", \"vectors\": " << n_vectors
            << ", \"engine_parallelism\": "
            << ThreadPool::hardware_parallelism() << "},\n  \"engines\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const EngineResult& r = results[i];
    std::cout << "    {\"name\": \"" << r.name
              << "\", \"vectors_per_sec\": " << r.vectors_per_sec()
              << ", \"elapsed_s\": " << r.seconds << ", \"speedup_vs_"
              << results.front().name << "\": "
              << (base_vps > 0.0 ? r.vectors_per_sec() / base_vps : 0.0)
              << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  std::cout << "  ],\n  \"engines_agree\": " << (agree ? "true" : "false")
            << "\n}\n";
  return agree ? 0 : 1;
}
