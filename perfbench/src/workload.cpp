#include "workload.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <stdexcept>
#include <thread>

#include "mcsn/core/gray.hpp"
#include "mcsn/core/spec.hpp"
#include "mcsn/nets/compose/builder.hpp"
#include "mcsn/serve/wire.hpp"
#include "mcsn/sorter.hpp"
#include "mcsn/util/loadgen.hpp"
#include "mcsn/util/rng.hpp"

namespace perfbench {

namespace {

using mcsn::SortShape;
using mcsn::Trit;
using mcsn::Word;

constexpr std::size_t kBatchRounds = 256;
/// Poisson arrival rate of poisson_mixed, requests/s. Every partial flush
/// evaluates a whole 256-lane group, so the worker's load follows the flush
/// count, not the rate: on a 4-CPU host it is ~40% busy here but ~80% at
/// 10k req/s and saturated at 40k, where latency turns into queueing and
/// run-to-run spread triples. Lanes stay near empty (occupancy ~0.5%).
constexpr double kPoissonRate = 2000.0;
/// Distinct single-round frames per poisson_mixed request kind.
constexpr std::size_t kPoissonFramesPerKind = 1024;

/// A frame being built: the rounds as words (the reference's input) and
/// the request the wire codec encodes.
struct Draft {
  std::vector<std::vector<Word>> rounds;
  Frame frame;
};

std::vector<Trit> flatten(const std::vector<std::vector<Word>>& rounds) {
  std::vector<Trit> flat;
  for (const std::vector<Word>& round : rounds) {
    for (const Word& w : round) flat.insert(flat.end(), w.begin(), w.end());
  }
  return flat;
}

/// The reference model: the round pushed through `net` one comparator at a
/// time, each comparator being the 2-sort specification by rank order
/// (max to the higher channel, min to the lower).
std::vector<Trit> reference_sort(const mcsn::ComparatorNetwork& net,
                                 std::vector<Word> round) {
  for (const std::vector<mcsn::Comparator>& layer : net.layers()) {
    for (const mcsn::Comparator& c : layer) {
      auto [hi, lo] = mcsn::sort2_spec_rank(round[static_cast<std::size_t>(c.lo)],
                                            round[static_cast<std::size_t>(c.hi)]);
      round[static_cast<std::size_t>(c.lo)] = std::move(lo);
      round[static_cast<std::size_t>(c.hi)] = std::move(hi);
    }
  }
  std::vector<Trit> flat;
  for (const Word& w : round) flat.insert(flat.end(), w.begin(), w.end());
  return flat;
}

mcsn::ComparatorNetwork served_network(int channels) {
  // The construction SorterPool runs for the shape (same builder options
  // as every pooled McSorter).
  const mcsn::NetworkBuilder builder(
      mcsn::builder_options(mcsn::McSorterOptions{}));
  mcsn::StatusOr<mcsn::BuiltNetwork> built = builder.build(channels);
  if (!built.ok()) {
    throw std::runtime_error("network for " + std::to_string(channels) +
                             " channels: " + built.status().to_string());
  }
  return std::move(built->network);
}

/// Encodes each draft's request and fills in its reference answer, spread
/// over the host's CPUs (untimed set-up work).
std::vector<Frame> finish(std::vector<Draft> drafts) {
  std::map<int, mcsn::ComparatorNetwork> nets;
  for (const Draft& d : drafts) {
    if (!nets.contains(d.frame.shape.channels)) {
      nets.emplace(d.frame.shape.channels, served_network(d.frame.shape.channels));
    }
  }
  const std::size_t threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < drafts.size(); i += threads) {
        Draft& d = drafts[i];
        const mcsn::ComparatorNetwork& net = nets.at(d.frame.shape.channels);
        for (const std::vector<Word>& round : d.rounds) {
          std::vector<Trit> sorted = reference_sort(net, round);
          d.frame.expect.insert(d.frame.expect.end(), sorted.begin(),
                                sorted.end());
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  std::vector<Frame> frames;
  frames.reserve(drafts.size());
  for (Draft& d : drafts) frames.push_back(std::move(d.frame));
  return frames;
}

/// A frame of `count` random valid rounds (about half the words carry an
/// M bit), as a BATCH frame when `batch`, else a single-round frame.
Draft trit_draft(mcsn::Xoshiro256& rng, SortShape shape, std::size_t count,
                 bool batch) {
  Draft d;
  for (std::size_t r = 0; r < count; ++r) {
    d.rounds.push_back(mcsn::random_valid_round(rng, shape.channels, shape.bits));
  }
  mcsn::StatusOr<mcsn::SortRequest> request =
      mcsn::SortRequest::own_batch(shape, count, flatten(d.rounds));
  if (!request.ok()) throw std::runtime_error(request.status().to_string());
  // No deadline, so the encode instant does not reach the bytes.
  d.frame.bytes = batch ? mcsn::wire::encode_batch_request(*request, {})
                        : mcsn::wire::encode_request(*request, {});
  d.frame.shape = shape;
  d.frame.rounds = count;
  return d;
}

/// A single-round frame carrying u64 values (stable, Gray-coded by the
/// server).
Draft value_draft(mcsn::Xoshiro256& rng, SortShape shape) {
  Draft d;
  std::vector<std::uint64_t> values;
  std::vector<Word> round;
  for (int c = 0; c < shape.channels; ++c) {
    values.push_back(rng.below(std::uint64_t{1} << shape.bits));
    round.push_back(mcsn::gray_encode(values.back(), shape.bits));
  }
  d.rounds.push_back(std::move(round));
  mcsn::StatusOr<mcsn::SortRequest> request =
      mcsn::SortRequest::from_values(shape, values);
  if (!request.ok()) throw std::runtime_error(request.status().to_string());
  d.frame.bytes = mcsn::wire::encode_request(*request, {});
  d.frame.shape = shape;
  return d;
}

Workload closed_batch(const std::string& name, SortShape shape,
                      std::size_t frames, std::size_t window, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.window = window;
  w.shapes = {shape};
  mcsn::Xoshiro256 rng(seed);
  std::vector<Draft> drafts;
  for (std::size_t f = 0; f < frames; ++f) {
    drafts.push_back(trit_draft(rng, shape, kBatchRounds, /*batch=*/true));
  }
  w.frames = finish(std::move(drafts));
  return w;
}

Workload poisson_mixed(std::uint64_t seed, double horizon_s) {
  Workload w;
  w.name = "poisson_mixed";
  w.open_loop = true;
  w.rate = kPoissonRate;
  const SortShape flagship{10, 8};
  const SortShape composed{24, 8};
  w.shapes = {flagship, composed};
  mcsn::Xoshiro256 rng(seed);
  std::vector<Draft> drafts;
  // Kinds in frame-index blocks: [0, n) 10x8 trits, [n, 2n) 10x8 values,
  // [2n, 3n) 24x8 trits.
  for (std::size_t i = 0; i < kPoissonFramesPerKind; ++i) {
    drafts.push_back(trit_draft(rng, flagship, 1, /*batch=*/false));
  }
  for (std::size_t i = 0; i < kPoissonFramesPerKind; ++i) {
    drafts.push_back(value_draft(rng, flagship));
  }
  for (std::size_t i = 0; i < kPoissonFramesPerKind; ++i) {
    drafts.push_back(trit_draft(rng, composed, 1, /*batch=*/false));
  }
  w.frames = finish(std::move(drafts));
  double t = 0.0;
  const double horizon = std::max(horizon_s, 0.0);
  while (true) {
    // uniform() is in [0, 1), so 1 - u is in (0, 1] and log() is finite.
    t += -std::log(1.0 - rng.uniform()) / w.rate;
    if (t >= horizon) break;
    w.due_ns.push_back(static_cast<std::int64_t>(t * 1e9));
    w.order.push_back(static_cast<std::uint32_t>(rng.below(w.frames.size())));
  }
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"batch_10x8", "batch_64x16",
                                                  "poisson_mixed"};
  return kNames;
}

std::uint64_t corpus_digest(const Workload& w) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (const Frame& f : w.frames) {
    for (const std::uint8_t b : f.bytes) mix(b);
  }
  for (std::size_t k = 0; k < w.due_ns.size(); ++k) {
    mix(static_cast<std::uint64_t>(w.due_ns[k]));
    mix(w.order[k]);
  }
  return h;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       double horizon_s) {
  // Frames in flight: a 10x8 frame takes ~0.5 ms of worker time, so with
  // only 4 in flight the sender, event loop, worker and receiver starve
  // one another and throughput follows thread wake-up jitter (262k-451k
  // rounds/s over three seeds on a 4-CPU host, against 531k-553k with 32).
  // A 64x16 frame takes ~10 ms, and 4 in flight already keep the worker busy.
  if (name == "batch_10x8") return closed_batch(name, {10, 8}, 32, 32, seed);
  if (name == "batch_64x16") return closed_batch(name, {64, 16}, 8, 4, seed);
  if (name == "poisson_mixed") return poisson_mixed(seed, horizon_s);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
