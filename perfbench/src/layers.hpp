#pragma once
// The traced run: the workload over the loopback stack once untraced and
// once with client-side spans (their difference is the tracing overhead),
// then the same frames replayed in-process, in request order, through each
// layer's public function under a span — wire decode, pool acquire,
// batcher add, engine sort, compiled-program eval on pre-packed planes,
// wire encode — plus SortService::submit on the workload's arrival
// pattern. Every span and registry read happens here, outside src/.

#include <cstdint>
#include <string>
#include <vector>

#include "loopback.hpp"
#include "workload.hpp"

namespace perfbench {

struct LayerMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct LayerReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  std::vector<LayerMetric> metrics;
  /// Which server thread limits a closed loop ("worker" or "event loop"),
  /// or why none does.
  std::string bottleneck;
};

/// Runs the traced measurement on an already set-up stack and writes every
/// span to `trace_path`.
[[nodiscard]] LayerReport run_traced(Stack& stack, const Workload& w,
                                     double warmup_s, double seconds,
                                     const std::string& trace_path);

}  // namespace perfbench
