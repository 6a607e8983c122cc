#pragma once
// The benchmark's workloads: every request frame, its reference answer and
// (open loop) its arrival schedule, generated from the seed before any
// timing starts. The program under test only ever sees these bytes.

#include <cstdint>
#include <string>
#include <vector>

#include "mcsn/api/sort_api.hpp"
#include "mcsn/core/trit.hpp"

namespace perfbench {

/// One request frame as it travels on the wire, with the answer the
/// reference model expects back.
struct Frame {
  mcsn::SortShape shape;
  std::size_t rounds = 1;
  std::vector<std::uint8_t> bytes;
  /// Sorted payload, rounds x shape.trits() trits.
  std::vector<mcsn::Trit> expect;
};

struct Workload {
  std::string name;
  /// Open loop: frames go out on a Poisson schedule. Closed loop: up to
  /// `window` frames in flight, the next sent as soon as a slot frees.
  bool open_loop = false;
  double rate = 0.0;
  std::size_t window = 0;
  std::vector<mcsn::SortShape> shapes;
  /// The distinct corpus; closed loops cycle through it in order.
  std::vector<Frame> frames;
  /// Open loop: arrival k sends frames[order[k]], due_ns[k] after start.
  std::vector<std::uint32_t> order;
  std::vector<std::int64_t> due_ns;

  [[nodiscard]] std::size_t frame_of(std::size_t seq) const {
    return open_loop ? order[seq] : seq % frames.size();
  }
};

/// Names of the workloads, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds workload `name` from `seed`. `horizon_s` bounds the open-loop
/// schedule (warm-up plus measured time). Reference answers are computed
/// with mcsn::sort2_spec_rank applied comparator by comparator along the
/// network the server builds for each shape — no compiled engine involved.
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed, double horizon_s);

/// FNV-1a digest of every frame's bytes and of the open-loop schedule.
/// Equal seeds give equal digests: the inputs are byte-identical.
[[nodiscard]] std::uint64_t corpus_digest(const Workload& w);

}  // namespace perfbench
