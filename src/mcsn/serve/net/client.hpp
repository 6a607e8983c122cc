#pragma once
// SortClient — a minimal blocking client for the wire codec (TCP or
// UNIX-domain), the counterpart of SocketServer. Used by tests, benches
// and the example client; it is deliberately simple (blocking sockets, one
// connection): production callers with their own event loops should speak
// the frames of serve/wire.hpp directly.
//
//   auto client = net::SortClient::connect("127.0.0.1", port);
//   if (!client.ok()) ...;
//   StatusOr<SortResponse> rsp = client->sort(request);      // send + recv
//
// Batch traffic uses the same connection: send_batch()/sort_batch() encode
// a multi-round request as one BATCH frame (wire v2) — one header, one
// syscall, one response frame for all rounds — and receive() transparently
// decodes whichever response type the server answered with.
//
// send()/receive() are also exposed separately so callers can pipeline:
// many sends first, then the matching receives — responses arrive in send
// order (the server guarantees per-connection ordering). A SortClient is
// move-only and NOT thread-safe as a whole, but one thread may send()
// while another receive()s (the two directions touch disjoint state) —
// exactly the writer/reader split a closed-loop pipelined driver needs.
//
// Nothing here throws: connection failures, short writes, malformed or
// truncated response frames all surface as Status values. A server that
// closed the connection cleanly between frames reports kUnavailable
// ("connection closed") from receive(). A connect that exceeds its
// optional timeout reports kDeadlineExceeded.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mcsn/api/sort_api.hpp"
#include "mcsn/serve/wire.hpp"

namespace mcsn::net {

class SortClient {
 public:
  /// Not yet connected; receive()/send() on a default-constructed client
  /// return kFailedPrecondition.
  SortClient() = default;

  ~SortClient();

  SortClient(SortClient&& other) noexcept;
  SortClient& operator=(SortClient&& other) noexcept;
  SortClient(const SortClient&) = delete;
  SortClient& operator=(const SortClient&) = delete;

  /// Resolves `host`, connects and disables Nagle. Blocks indefinitely by
  /// default; with `timeout` set, the attempt is bounded (kDeadlineExceeded
  /// past it) — interrupted waits resume with the remaining budget, so a
  /// signal storm cannot silently shorten or extend it. Returns
  /// kUnavailable with errno/getaddrinfo text on other failures.
  [[nodiscard]] static StatusOr<SortClient> connect(
      const std::string& host, std::uint16_t port,
      std::optional<std::chrono::milliseconds> timeout = std::nullopt);

  /// Connects to a SocketServer's UNIX-domain listener (SocketOptions::
  /// unix_path). Same timeout semantics as connect().
  [[nodiscard]] static StatusOr<SortClient> connect_unix(
      const std::string& path,
      std::optional<std::chrono::milliseconds> timeout = std::nullopt);

  /// Encodes `request` as one wire frame and writes it fully. A deadline
  /// on the request travels as a relative budget and is re-anchored at
  /// server receipt. Single-round requests encode as a v1 REQUEST frame
  /// (interoperable with v1 servers); a v1 frame has no round count, so a
  /// request with rounds != 1 goes out as a BATCH frame, exactly as
  /// send_batch() would send it.
  [[nodiscard]] Status send(const SortRequest& request);

  /// Encodes `request` — any rounds count, 1 included — as one BATCH
  /// request frame (wire v2). The server answers with a single BATCH
  /// response carrying all rounds' outputs. Requires a v2 server; a v1
  /// server rejects the frame with kUnimplemented.
  [[nodiscard]] Status send_batch(const SortRequest& request);

  /// Blocks for the next response frame (single-round or batch; the
  /// response's `rounds` field tells which). Responses arrive in send
  /// order. kUnavailable on clean server close between frames; kDataLoss
  /// on a close mid-frame or corrupt framing. A response whose own status
  /// is non-OK (e.g. the server answering a malformed request) decodes
  /// successfully — inspect SortResponse::status.
  [[nodiscard]] StatusOr<SortResponse> receive();

  /// send() + receive(): the one-liner for unpipelined callers.
  [[nodiscard]] StatusOr<SortResponse> sort(const SortRequest& request);

  /// send_batch() + receive(): one round trip for a whole rounds batch.
  [[nodiscard]] StatusOr<SortResponse> sort_batch(const SortRequest& request);

  /// Writes one STATS request frame (wire v2) asking for the server's
  /// observability document in `format`. Pipelines with sort sends: the
  /// matching stats response arrives in send order.
  [[nodiscard]] Status send_stats(
      wire::StatsFormat format = wire::StatsFormat::json);

  /// Blocks for the next frame, which must be a stats response (use after
  /// send_stats with no sort sends in between, or drain sort responses
  /// first when pipelining). The reply's own status reports server-side
  /// scrape failures; wire-level corruption surfaces as this call's Status.
  /// A frame of the wrong kind is kUnimplemented here and in receive(), and
  /// stays buffered for the receiver that expects it.
  [[nodiscard]] StatusOr<wire::StatsReply> receive_stats();

  /// send_stats() + receive_stats(): one-call scrape.
  [[nodiscard]] StatusOr<wire::StatsReply> stats(
      wire::StatsFormat format = wire::StatsFormat::json);

  /// Closes the connection (idempotent; the destructor calls it).
  void close() noexcept;

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// The raw socket, for tests that need byte-level control (split writes,
  /// deliberate garbage). -1 when closed.
  [[nodiscard]] int native_handle() const noexcept { return fd_; }

 private:
  explicit SortClient(int fd) : fd_(fd) {}

  [[nodiscard]] Status write_frame(const std::vector<std::uint8_t>& frame);

  /// The read loop both receivers share: blocks until rbuf_ starts with a
  /// complete frame and returns a view of it. The caller decodes the body,
  /// then erases the frame's bytes from rbuf_ (or leaves them buffered).
  [[nodiscard]] StatusOr<wire::FrameView> next_frame();

  int fd_ = -1;
  /// Bytes received but not yet consumed as frames (reads can straddle
  /// frame boundaries in both directions).
  std::vector<std::uint8_t> rbuf_;
  /// recv staging buffer (only the bytes actually read move to rbuf_);
  /// touched by the receive side only, so the send/receive thread split
  /// holds.
  std::vector<std::uint8_t> scratch_;
};

}  // namespace mcsn::net
