#pragma once
// SocketServer — the TCP (and UNIX-domain) front door to the streaming
// sort service.
//
// Accepts connections on non-blocking listening sockets and runs them on
// one or more single-threaded epoll event loops (Linux only). Each
// connection carries the length-prefixed wire frames of serve/wire.hpp:
//
//   client                         server
//   ------ request frame  ------>  incremental decode (try_parse_frame on a
//                                  per-connection read buffer; frames may
//                                  arrive split or coalesced arbitrarily)
//                                  -> SortService::submit(request, callback)
//   <----- response frame ------   responses return strictly in per-
//                                  connection request order, via an ordered
//                                  completion queue + EPOLLOUT-driven
//                                  write flushes
//
// BATCH frames (wire v2) ride the same path: a batch request decodes
// straight into one contiguous flat buffer, submits as a single
// multi-round SortRequest (one engine lane group), and answers with a
// single batch response frame — amortizing header, syscall and completion
// cost across all of its rounds.
//
// STATS frames (wire v2) are admin requests answered directly from the
// event loop — the observability document (service registry + slow-request
// ring) is rendered inline and the response queued behind the responses
// already owed, so scrapes never take a trip through the batcher yet still
// respect per-connection ordering and flow control.
//
// Scaling: SocketOptions::loops spins up N event-loop threads, each with
// its own epoll instance, self-pipe and connection table. Loop 0 owns
// every listener, TCP and UNIX-domain alike, and with several loops hands
// accepted fds round-robin to all of them (itself included) through each
// loop's handoff inbox and wake pipe. A connection is pinned to one loop
// for life, so all per-connection ordering and flow-control invariants
// hold exactly as in the single-loop case.
//
// Threading/ownership: the caller owns the SortService and must keep it
// alive from start() until stop() returns. Each loop thread owns its
// sockets and connection state; service completions (which run on service
// worker threads, or inline on a loop thread for synchronous rejections)
// only encode the response, file it under the request's sequence number
// and wake the owning loop through its self-pipe — they never touch a
// file descriptor. start()/stop()/port()/connections() are safe to call
// from any thread; stop() is idempotent and the destructor calls it.
//
// Each loop counts its traffic in socket_*_total{loop="i"} series of the
// service's MetricsRegistry (docs/OBSERVABILITY.md §2); read them there,
// e.g. service.registry().counter_total("socket_requests_total") for the
// sum over loops.
//
// Flow control and defense:
//   * at most max_inflight *rounds* per connection that are decoded but
//     not yet fully written back (a single-round frame counts 1, a batch
//     frame counts its round count); at the cap the loop stops reading
//     (and parsing) that connection until responses flush, so one
//     firehose client cannot monopolize the engine — and a client that
//     sends but never reads holds a bounded encoded backlog, not an
//     unbounded write queue;
//   * at most max_connections concurrent connections across all loops
//     (excess accepts are closed immediately);
//   * a connection with no socket progress for idle_timeout is closed —
//     responses still owed included (no read/write progress that long
//     means the peer stopped reading; its backlog is reclaimed);
//   * a malformed frame (bad magic/version/type/length, or a well-framed
//     but undecodable request body) is answered with a Status error frame
//     — queued behind the responses already owed, so the client can match
//     it to the first bad request — and the connection is closed once that
//     frame flushes. Corrupt framing is unrecoverable, so nothing after
//     the bad bytes is parsed.
//
// stop() stops accepting on every loop, lets every admitted request
// complete and flushes every owed response (for at most 5 s, then the
// remaining connections are force-closed), then closes all sockets and
// joins all loop threads.
//
// The server provisions nothing on the service: callers should size
// ServeOptions::max_inflight >= max_connections * max_inflight, or accept
// that a loop thread briefly blocks in submit() under service-wide
// backpressure (correct, but it stalls that loop's connections).

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "mcsn/api/status.hpp"
#include "mcsn/serve/service.hpp"

namespace mcsn::net {

struct SocketOptions {
  /// Bind address. Loopback by default: exposing a sorter to a network is
  /// an explicit decision ("0.0.0.0"), not a default.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Event-loop threads. Each loop has its own epoll instance, self-pipe
  /// and connection table; loop 0 accepts for all of them and hands
  /// connections out round-robin.
  int loops = 1;
  /// Also listen on this UNIX-domain socket path ("" = no UDS listener).
  /// A stale socket file at the path is unlinked on start; the bound path
  /// is unlinked again on stop(). Refuses to replace a non-socket file.
  std::string unix_path;
  /// Serve TCP. Disable for a UDS-only server (unix_path must then be
  /// set); port() reports 0 when no TCP listener exists.
  bool listen_tcp = true;
  /// Concurrent-connection cap across all loops; excess accepts are
  /// closed immediately.
  std::size_t max_connections = 256;
  /// Per-connection cap on *rounds* decoded but not yet fully written
  /// back (a single-round frame counts 1, a batch frame its round count;
  /// covers both in-flight sorts and encoded frames queued for a slow
  /// reader). At the cap the loop stops reading from the connection until
  /// responses flush. A batch frame larger than the cap is still served
  /// whole — it just pauses further reads until it flushes.
  std::size_t max_inflight = 64;
  /// Close a connection with no read/write progress for this long — even
  /// with responses owed (a peer that stopped reading would otherwise
  /// pin its encoded backlog forever). Zero disables idle teardown.
  std::chrono::milliseconds idle_timeout{30000};
  /// SO_SNDBUF for accepted connections, in bytes; 0 keeps the kernel
  /// default. Pinning it disables send-side autotuning — bounds kernel
  /// memory per slow-reading connection, and makes write backpressure
  /// deterministic in tests.
  int sndbuf = 0;

  /// Test-only fault hooks (soak harness, adversarial tests). All off by
  /// default; production callers never set these.
  struct FaultInjection {
    /// Cap bytes consumed per recv(2) call (0 = no cap). Forces the
    /// incremental decoder through hostile fragmentation — every frame
    /// arrives split at arbitrary byte boundaries — without needing a
    /// peer that actually trickles bytes.
    std::size_t recv_cap = 0;
    /// Cap bytes offered per send(2) call (0 = no cap). Splits response
    /// frames across many partial writes, exercising the EPOLLOUT resume
    /// path and write-offset bookkeeping on every response.
    std::size_t send_cap = 0;
  };
  FaultInjection fault;

  /// Reports every out-of-range knob in one kInvalidArgument status;
  /// start() calls it, CLI front-ends can call it earlier for better
  /// error placement.
  [[nodiscard]] Status validate() const;
};

class SocketServer {
 public:
  /// Binds nothing yet; `service` must outlive this object's start()..
  /// stop() window.
  explicit SocketServer(SortService& service, SocketOptions opt = {});
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Validates options, binds + listens, and starts the event-loop
  /// threads. Returns kInvalidArgument for bad options and kUnavailable
  /// for socket/bind/listen failures (with errno text). Call at most once.
  [[nodiscard]] Status start();

  /// Stops accepting on every loop, drains owed responses (for at most
  /// 5 s), closes every socket and joins all loop threads.
  /// Idempotent; called by the destructor. Safe from any thread, but not
  /// from a service completion.
  void stop();

  /// The bound TCP port (useful with SocketOptions::port == 0). 0 when TCP
  /// is disabled. Valid after a successful start().
  [[nodiscard]] std::uint16_t port() const noexcept;

  /// Event loops actually running (== SocketOptions::loops after a
  /// successful start()).
  [[nodiscard]] std::size_t loop_count() const noexcept;

  /// Connections currently open across all loops (approximate from
  /// non-loop threads).
  [[nodiscard]] std::size_t connections() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mcsn::net
