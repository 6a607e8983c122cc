#pragma once
// The end-to-end path: an in-process SortService + SocketServer (one
// worker, one event loop) on loopback TCP, driven by a single-process load
// generator (one sending thread, one receiving thread, one connection)
// that checks every response against the workload's reference answers.

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "mcsn/serve/net/client.hpp"
#include "mcsn/serve/net/socket_server.hpp"
#include "mcsn/serve/service.hpp"
#include "workload.hpp"

namespace perfbench {

/// The system under test plus the client connection into it. Members are
/// torn down client first, service last.
struct Stack {
  std::unique_ptr<mcsn::SortService> service;
  std::unique_ptr<mcsn::net::SocketServer> server;
  mcsn::net::SortClient client;
  /// Threads the service and the server started (CPU-time accounting).
  std::vector<pid_t> worker_tids;
  std::vector<pid_t> loop_tids;
  /// Seconds spent in the program's own set-up calls: the service
  /// constructor (which warms the workload's shapes), the server's
  /// construction and start(), and the client's connect().
  double setup_s = 0.0;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack();
};

/// Constructs the service (warming the workload's shapes), starts the
/// listener and connects the client. On failure returns null and sets
/// `error`.
[[nodiscard]] std::unique_ptr<Stack> set_up(const Workload& w,
                                            std::string& error);

struct LoopbackResult {
  std::uint64_t attempted = 0;  ///< frames sent
  std::uint64_t failed = 0;     ///< errors, refusals, wrong or missing answers
  std::string first_error;
  /// Rounds whose response arrived inside the measured window.
  std::uint64_t window_rounds = 0;
  double window_s = 0.0;
  /// Per-frame latency in us, for frames due inside the window: from the
  /// send (closed loop) or the scheduled send time (open loop) to receipt.
  std::vector<double> latency_us;
  /// When each latency sample's frame began, ns after the window opened.
  std::vector<std::int64_t> latency_at_ns;
  /// (receipt ns after the window opened, rounds) per in-window response.
  std::vector<std::pair<std::int64_t, std::size_t>> rounds_at;
  /// How late the generator sent, in us, for frames due inside the window
  /// (closed loop: due when its window slot freed).
  std::vector<double> lag_us;
  std::uint64_t request_bytes = 0;
  std::uint64_t response_bytes = 0;
  std::uint64_t rounds = 0;
  /// CPU busy share of each thread over the window (CPU time / wall time).
  double loop_busy = 0.0;
  double worker_busy = 0.0;
  double send_busy = 0.0;
  double recv_busy = 0.0;

  [[nodiscard]] double rounds_per_s() const {
    return window_s > 0.0 ? static_cast<double>(window_rounds) / window_s : 0.0;
  }
};

/// The reported end-to-end figures. The window is cut into equal slices of
/// at least one second and 2000 latency samples each (one slice when the
/// run is too short for two); every figure is the median over slices of
/// that slice's own value, computed from raw samples. A host stall then
/// moves one slice's p99 instead of the whole run's.
struct WindowStats {
  std::size_t slices = 1;
  double rounds_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};
[[nodiscard]] WindowStats window_stats(const LoopbackResult& r);

/// Spans the client threads record in a traced run: encode + send on the
/// sending side, recv + decode on the receiving side.
struct ClientTrace {
  SpanLog* send = nullptr;
  SpanLog* recv = nullptr;
  /// The corpus frames decoded back into requests; the traced sender
  /// re-encodes each frame from these inside its encode span.
  const std::vector<mcsn::SortRequest>* requests = nullptr;
};

/// Runs `w` over the stack's connection: `warmup_s` untimed, then
/// `seconds` measured, then drains every outstanding response.
[[nodiscard]] LoopbackResult run_loopback(Stack& stack, const Workload& w,
                                          double warmup_s, double seconds,
                                          const ClientTrace& trace = {});

}  // namespace perfbench
